package core

import (
	"strings"
	"testing"

	"resilience/internal/checkpoint"
	"resilience/internal/platform"
)

// respellings returns name in the spellings a caller may type: as is,
// lower case, alternating case, and padded with blanks.
func respellings(name string) []string {
	mixed := []byte(strings.ToLower(name))
	for i := 0; i < len(mixed); i += 2 {
		mixed[i] = strings.ToUpper(string(mixed[i]))[0]
	}
	return []string{name, strings.ToLower(name), string(mixed), "  " + string(mixed) + "\t"}
}

// TestSchemeTable walks the scheme table itself: everything the tree
// parses, prints or keys on a scheme is derived from these rows, so the
// rows have to be coherent among themselves and complete over the enum.
func TestSchemeTable(t *testing.T) {
	owner := map[string]int{} // spelling -> row, to prove spellings distinct across rows
	for i, r := range schemeTable {
		spec := r.SchemeSpec
		if spec != (SchemeSpec{Kind: r.Kind, Construct: r.Construct, DVFS: r.DVFS}) {
			t.Errorf("row %s: spec %+v carries more than identity", r.name, spec)
		}
		spellings := append([]string{r.name, r.flag}, r.aliases...)
		for _, s := range spellings {
			if s != strings.ToUpper(s) || s != strings.TrimSpace(s) || s == "" {
				t.Errorf("row %s: spelling %q is not a trimmed upper-case word", r.name, s)
			}
			if j, dup := owner[s]; dup && j != i {
				t.Errorf("spelling %q selects both %s and %s", s, schemeTable[j].name, r.name)
			}
			owner[s] = i
			for _, typed := range respellings(s) {
				if got, ok := ParseScheme(typed); !ok || got != spec {
					t.Errorf("ParseScheme(%q) = %+v, %v; want %+v", typed, got, ok, spec)
				}
			}
		}
		if strings.ContainsAny(r.flag, "() \t") {
			t.Errorf("row %s: canonical spelling %q would not survive a shell word", r.name, r.flag)
		}
		if got := spec.Name(); got != r.name {
			t.Errorf("%+v.Name() = %q, want %q", spec, got, r.name)
		}
		if got := spec.CanonicalName(); got != r.flag {
			t.Errorf("%+v.CanonicalName() = %q, want %q", spec, got, r.flag)
		}
		// Tuning fields never change what a scheme is called.
		tuned := spec
		tuned.CkptEvery, tuned.LocalTol = 7, 1e-3
		if tuned.Name() != r.name || tuned.CanonicalName() != r.flag || tuned.Checkpoints() != spec.Checkpoints() {
			t.Errorf("row %s: a tuned spec is named %q / %q", r.name, tuned.Name(), tuned.CanonicalName())
		}
	}
	if got := strings.Join(SchemeNames(), " "); got != "FF F0 FI LI LI-DVFS LI(LU) LSI LSI-DVFS LSI(QR) CR-M CR-D CR-2L LCR RD TMR ESR" {
		t.Errorf("SchemeNames() = %s", got)
	}
	for _, bad := range []string{"", " ", "nope", "LI(LU)-DVFS", "CR", "L I"} {
		if spec, ok := ParseScheme(bad); ok {
			t.Errorf("ParseScheme(%q) accepted as %+v", bad, spec)
		}
	}

	var ckpt []string
	for k := FF; k <= LCR; k++ {
		spec := SchemeSpec{Kind: k}
		if schemeRowOf(k, spec.Construct, false) == nil {
			t.Errorf("kind %d has no plain row in the scheme table", int(k))
			continue
		}
		if strings.HasPrefix(k.String(), "SchemeKind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		if spec.Checkpoints() {
			ckpt = append(ckpt, k.String())
		}
		if levels := CheckpointLevels(k, platform.Default(), checkpoint.FixedPolicy(5)); (len(levels) > 0) != spec.Checkpoints() {
			t.Errorf("%s: %d checkpoint levels, Checkpoints() = %t", k, len(levels), spec.Checkpoints())
		}
		cfg := &RunConfig{Plat: platform.Default(), Scheme: spec}
		scheme, err := buildScheme(cfg, checkpoint.FixedPolicy(5), 8)
		if err != nil || (scheme == nil) != (k == FF) {
			t.Errorf("buildScheme(%s) = %v, %v", k, scheme, err)
		}
	}
	if got := strings.Join(ckpt, " "); got != "CR-M CR-D CR-2L LCR" {
		t.Errorf("Checkpoints() holds for %q, want exactly CR-M CR-D CR-2L LCR", got)
	}
	if _, err := buildScheme(&RunConfig{Scheme: SchemeSpec{Kind: LCR + 1}}, checkpoint.Policy{}, 8); err == nil {
		t.Error("buildScheme accepted a kind past the enum")
	}
}
