package core

import (
	"fmt"
	"strings"

	"resilience/internal/recovery"
)

// schemeRow is one scheme a name can select. The embedded spec carries
// identity only — Kind, Construct, DVFS — with every tuning field zero.
type schemeRow struct {
	SchemeSpec
	// name is the presentation name of the paper's tables: what
	// RunReport.Scheme, every rendered experiment and every golden print.
	name string
	// flag is the canonical -scheme spelling: what cache keys hold and
	// what a printed replay string round-trips through, so it must survive
	// an unquoted shell word (no parentheses).
	flag string
	// aliases are further spellings the parser accepts.
	aliases []string
	// ckpt marks the schemes that roll back to a checkpoint and therefore
	// need an interval (CkptEvery, or CkptMTBF for Young's formula).
	ckpt bool
}

// schemeTable is the scheme vocabulary, in presentation order: every name
// the tree accepts, prints or keys a cache entry on is derived from it.
// All spellings are upper case; ParseScheme folds its input to match.
var schemeTable = []schemeRow{
	{SchemeSpec: SchemeSpec{Kind: FF}, name: "FF", flag: "FF"},
	{SchemeSpec: SchemeSpec{Kind: F0}, name: "F0", flag: "F0"},
	{SchemeSpec: SchemeSpec{Kind: FI}, name: "FI", flag: "FI"},
	{SchemeSpec: SchemeSpec{Kind: LI}, name: "LI", flag: "LI"},
	{SchemeSpec: SchemeSpec{Kind: LI, DVFS: true}, name: "LI-DVFS", flag: "LI-DVFS"},
	{SchemeSpec: SchemeSpec{Kind: LI, Construct: recovery.ConstructExact}, name: "LI(LU)", flag: "LI-LU"},
	{SchemeSpec: SchemeSpec{Kind: LSI}, name: "LSI", flag: "LSI"},
	{SchemeSpec: SchemeSpec{Kind: LSI, DVFS: true}, name: "LSI-DVFS", flag: "LSI-DVFS"},
	{SchemeSpec: SchemeSpec{Kind: LSI, Construct: recovery.ConstructExact}, name: "LSI(QR)", flag: "LSI-QR"},
	{SchemeSpec: SchemeSpec{Kind: CRM}, name: "CR-M", flag: "CR-M", aliases: []string{"CRM"}, ckpt: true},
	{SchemeSpec: SchemeSpec{Kind: CRD}, name: "CR-D", flag: "CR-D", aliases: []string{"CRD"}, ckpt: true},
	{SchemeSpec: SchemeSpec{Kind: CR2L}, name: "CR-2L", flag: "CR-2L", aliases: []string{"CR2L"}, ckpt: true},
	{SchemeSpec: SchemeSpec{Kind: LCR}, name: "LCR", flag: "LCR", ckpt: true},
	{SchemeSpec: SchemeSpec{Kind: RD}, name: "RD", flag: "RD", aliases: []string{"DMR"}},
	{SchemeSpec: SchemeSpec{Kind: TMR}, name: "TMR", flag: "TMR"},
	{SchemeSpec: SchemeSpec{Kind: ESR}, name: "ESR", flag: "ESR"},
}

// schemeRowOf returns the row whose identity is (kind, construct, dvfs),
// or nil when no name selects that combination.
func schemeRowOf(kind SchemeKind, construct recovery.Construction, dvfs bool) *schemeRow {
	for i := range schemeTable {
		r := &schemeTable[i]
		if r.Kind == kind && r.Construct == construct && r.DVFS == dvfs {
			return r
		}
	}
	return nil
}

// ParseScheme resolves a scheme name — presentation name, canonical flag
// spelling or alias, in any case, surrounding blanks ignored — to its
// spec. It is the only enumeration from names to specs in the tree;
// callers word their own unknown-name error.
func ParseScheme(name string) (SchemeSpec, bool) {
	u := strings.ToUpper(strings.TrimSpace(name))
	for i := range schemeTable {
		r := &schemeTable[i]
		if u == r.name || u == r.flag {
			return r.SchemeSpec, true
		}
		for _, a := range r.aliases {
			if u == a {
				return r.SchemeSpec, true
			}
		}
	}
	return SchemeSpec{}, false
}

// SchemeNames lists the presentation names in presentation order.
func SchemeNames() []string {
	names := make([]string, len(schemeTable))
	for i := range schemeTable {
		names[i] = schemeTable[i].name
	}
	return names
}

func (k SchemeKind) String() string {
	if r := schemeRowOf(k, recovery.ConstructCG, false); r != nil {
		return r.name
	}
	return fmt.Sprintf("SchemeKind(%d)", int(k))
}

// Name returns the presentation name used in the paper's tables.
func (s SchemeSpec) Name() string {
	if r := schemeRowOf(s.Kind, s.Construct, s.DVFS); r != nil {
		return r.name
	}
	// No name selects this combination; the construction ablation still
	// builds one (LI(LU) under DVFS), so name it after its parts.
	if s.DVFS {
		s.DVFS = false
		return s.Name() + "-DVFS"
	}
	return s.Kind.String()
}

// CanonicalName returns the one -scheme spelling that stands for s in
// cache keys and replay strings; ParseScheme maps it back to s's identity.
// A combination no name selects has none, and gets its presentation name.
func (s SchemeSpec) CanonicalName() string {
	if r := schemeRowOf(s.Kind, s.Construct, s.DVFS); r != nil {
		return r.flag
	}
	return s.Name()
}

// Checkpoints reports whether the scheme rolls back to a checkpoint, and
// so needs a checkpoint interval (CkptEvery, or CkptMTBF to derive one).
func (s SchemeSpec) Checkpoints() bool {
	r := schemeRowOf(s.Kind, recovery.ConstructCG, false)
	return r != nil && r.ckpt
}
