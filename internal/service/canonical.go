package service

import (
	"sort"

	"resilience/internal/chaos"
)

// canonicalVersion prefixes every cache key so a future change to the
// encoding can never alias keys produced by an older one.
const canonicalVersion = "j1"

// CanonicalKey renders req as its canonical cache key: a stable byte
// string such that two requests get the same key exactly when the
// service's determinism contract guarantees byte-identical results.
// cacheable is false for jobs whose outcome is not a pure function of
// the request (sleep diagnostics); err is non-nil exactly for requests
// Validate rejects, and is the error Validate returns. It validates as it
// keys, parsing a scenario once, so a caller that needs the key calls
// only CanonicalKey.
//
// Normalization rules (pinned by TestCanonicalKey* and FuzzCanonicalKey):
//
//   - Scenario jobs: the flag string is parsed and re-rendered through
//     the canonical scenario codec, so flag order, extra whitespace,
//     elided defaults, alternate float spellings of -tol, and scheme
//     aliases/case ("crm", "CR-M") all collapse to one key. Faults are
//     stable-sorted by iteration —
//     exactly the order fault.NewSchedule executes them in — so
//     listings that differ only in cross-iteration order unify, while
//     same-iteration order (which changes execution) is preserved.
//   - Verdict jobs normalize like scenario jobs but key under a distinct
//     "verdict" kind (the response carries the invariant battery's
//     verdict), with the break-invariant self-test hook keyed in.
//   - TimeoutMs is excluded for every kind: a deadline changes whether a
//     result is produced, never which bytes it contains, and failed jobs
//     are never cached.
func CanonicalKey(req JobRequest) (key string, cacheable bool, err error) {
	s, err := req.parse()
	if err != nil {
		return "", false, err
	}
	if req.Kind() != "scenario" {
		return "", false, nil
	}
	spec, _ := chaos.ParseSchemeName(s.Scheme) // ParseArgs accepted it
	s.Scheme = spec.CanonicalName()
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Iter < s.Faults[j].Iter })
	if req.Verdict {
		// Verdict jobs answer with the invariant battery's verdict, so
		// they can never alias a plain scenario key; the break-invariant
		// self-test hook changes the verdict and keys separately.
		// Invariant names are a fixed identifier set — no '|' collisions.
		return canonicalVersion + "|verdict|" + req.BreakInvariant + "|" + s.Args(), true, nil
	}
	return canonicalVersion + "|scenario|" + s.Args(), true, nil
}
