package service

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"resilience/internal/chaos"
	"resilience/internal/core"
)

// FuzzCanonicalKey fuzzes the canonicalization contract: for any valid
// scenario flag string, a generated semantically-equal respelling —
// permuted flags, irregular whitespace, elided defaults, alternate
// float formats, faults re-listed in execution order — must encode to
// the identical cache key, and the key must round-trip through the
// scenario codec (so distinct canonical scenarios cannot alias).
func FuzzCanonicalKey(f *testing.F) {
	f.Add("", uint64(0))
	f.Add("-grid 8 -ranks 4 -scheme LI-DVFS -tol 1e-10 -ckpt 6 -detect 2 -seed 7 -faults SNF@5:r2,SDC@9:r0", uint64(1))
	f.Add("-grid 6 -ranks 1 -scheme CR-M -tol 1e-08 -ckpt 2 -seed 1 -jacobi", uint64(0xdeadbeef))
	f.Add("-grid 10 -ranks 6 -scheme F0 -faults DCE@1:r0,DUE@1:r1,SWO@2:r5,LNF@2:r3", uint64(42))
	f.Add("-scheme LSI(QR) -jacobi -faults SNF@33:r0", uint64(7))
	f.Add("-tol 0.0000000001 -seed 0099", uint64(3))
	f.Fuzz(func(t *testing.T, args string, perm uint64) {
		if strings.TrimSpace(args) == "" {
			// An empty flag string parses as the default scenario, but an
			// empty JobRequest.Scenario means "no scenario job" — out of
			// the codec's domain.
			t.Skip()
		}
		s, err := chaos.ParseArgs(args)
		if err != nil {
			// Outside the codec's domain: no key either (a 400 at the
			// handler). The -jacobi seeds pin that for a retired flag.
			if _, ok, kerr := CanonicalKey(JobRequest{Scenario: args}); ok || kerr == nil {
				t.Fatalf("scenario %q that ParseArgs rejects got a key", args)
			}
			return
		}
		want, ok, err := CanonicalKey(JobRequest{Scenario: args})
		if err != nil || !ok {
			t.Fatalf("valid scenario rejected by CanonicalKey: %v %v", ok, err)
		}

		respelled := respell(s, perm)
		got, ok, err := CanonicalKey(JobRequest{Scenario: respelled})
		if err != nil || !ok {
			t.Fatalf("respelling %q of %q rejected: %v %v", respelled, args, ok, err)
		}
		if got != want {
			t.Fatalf("equivalent spellings disagree:\n  orig: %q -> %q\n  resp: %q -> %q", args, want, respelled, got)
		}

		// The canonical form itself is a fixed point.
		canon := strings.TrimPrefix(want, "j1|scenario|")
		again, ok, err := CanonicalKey(JobRequest{Scenario: canon})
		if err != nil || !ok || again != want {
			t.Fatalf("canonical form not a fixed point: %q -> %q (%v %v)", canon, again, ok, err)
		}
	})
}

// FuzzSchemeSpec fuzzes the scheme-name half of the canonicalization
// contract: any name the scenario codec accepts must map to a canonical
// spelling that re-parses to the identical spec (name -> spec ->
// canonical name -> spec is a fixpoint), and the canonical spelling must
// itself be stable. Seeded from the scheme table: every presentation name
// (FF included, which the codec rejects), its canonical spelling and a
// lower-case, blank-padded respelling; core's table test walks the aliases.
func FuzzSchemeSpec(f *testing.F) {
	f.Add("nope")
	f.Add("")
	for _, name := range core.SchemeNames() {
		spec, _ := core.ParseScheme(name)
		f.Add(name)
		f.Add(spec.CanonicalName())
		f.Add(" " + strings.ToLower(name) + " ")
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := chaos.ParseSchemeName(name)
		if err != nil {
			return
		}
		canon := spec.CanonicalName()
		spec2, err := chaos.ParseSchemeName(canon)
		if err != nil {
			t.Fatalf("canonical name %q of %q does not parse: %v", canon, name, err)
		}
		if spec2 != spec {
			t.Fatalf("spec round-trip not a fixpoint: %q -> %+v -> %q -> %+v", name, spec, canon, spec2)
		}
		if again := spec2.CanonicalName(); again != canon {
			t.Fatalf("canonical name not a fixpoint: %q -> %q", canon, again)
		}
	})
}

// respell renders s as a semantically-equal but syntactically different
// flag string, driven by perm: flags emitted in a permuted order with
// irregular spacing, default-valued flags sometimes elided, -tol in an
// alternate exact float format, and the fault list stable-sorted by
// descending iteration (execution order is a stable ascending sort, so
// relative order of same-iteration faults — the part that matters — is
// preserved).
func respell(s *chaos.Scenario, perm uint64) string {
	next := func(n int) int {
		perm = perm*6364136223846793005 + 1442695040888963407
		if n <= 0 {
			return 0
		}
		return int((perm >> 33) % uint64(n))
	}
	sep := func() string {
		return []string{" ", "  ", "\t", " \t "}[next(4)]
	}

	tol := strconv.FormatFloat(s.Tol, 'g', -1, 64)
	switch next(3) {
	case 1:
		tol = strconv.FormatFloat(s.Tol, 'e', -1, 64)
	case 2:
		tol = strings.ToUpper(strconv.FormatFloat(s.Tol, 'e', -1, 64))
	}

	scheme := s.Scheme
	switch next(3) {
	case 1:
		scheme = strings.ToLower(scheme)
	case 2:
		scheme = strings.ToUpper(scheme)
	}

	faults := make([]chaos.FaultSpec, len(s.Faults))
	copy(faults, s.Faults)
	if next(2) == 1 {
		// Stable sort by descending iteration: cross-iteration order
		// changes, same-iteration relative order survives.
		for i := 1; i < len(faults); i++ {
			for j := i; j > 0 && faults[j-1].Iter < faults[j].Iter; j-- {
				faults[j-1], faults[j] = faults[j], faults[j-1]
			}
		}
	}
	var fl []string
	for _, fs := range faults {
		fl = append(fl, fs.String())
	}

	type tok struct {
		s    string
		keep bool // emit even when it spells a ParseArgs default
	}
	toks := []tok{
		{fmt.Sprintf("-grid%s%d", sep(), s.Grid), s.Grid != 8},
		{fmt.Sprintf("-ranks%s%d", sep(), s.Ranks), s.Ranks != 4},
		{fmt.Sprintf("-scheme%s%s", sep(), scheme), !strings.EqualFold(s.Scheme, "LI")},
		{fmt.Sprintf("-tol%s%s", sep(), tol), s.Tol != 1e-10},
		{fmt.Sprintf("-ckpt%s%d", sep(), s.CkptEvery), s.CkptEvery != 0},
		{fmt.Sprintf("-detect%s%d", sep(), s.DetectDelay), s.DetectDelay != 0},
		{fmt.Sprintf("-seed%s%d", sep(), s.Seed), s.Seed != 1},
	}
	if len(fl) > 0 {
		toks = append(toks, tok{"-faults" + sep() + strings.Join(fl, ","), true})
	}

	seedTok := toks[6]
	kept := toks[:0]
	for _, tk := range toks {
		if tk.keep || next(2) == 0 {
			kept = append(kept, tk)
		}
	}
	if len(kept) == 0 {
		// All-defaults scenario with everything elided would render "",
		// which is not a scenario request at all; keep one flag.
		kept = append(kept, seedTok)
	}
	for i := len(kept) - 1; i > 0; i-- {
		j := next(i + 1)
		kept[i], kept[j] = kept[j], kept[i]
	}
	var b strings.Builder
	for i, tk := range kept {
		if i > 0 {
			b.WriteString(sep())
		}
		b.WriteString(tk.s)
	}
	return b.String()
}
