package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Verdict is one scenario's campaign outcome in wire form: the canonical
// scenario, its classification, and the bitwise-faithful run facts. It is
// the unit the distributed chaos fleet streams back from service
// replicas, so the encoding is strictly deterministic — two verdicts are
// byte-equal exactly when the underlying runs were bitwise-identical and
// classified the same way.
//
// Float fields are hex float64 strings (strconv 'x' round-trips every
// bit); the solution and residual history are folded to FNV-1a-64 hashes
// (see HashFloats). Fields describing the run report are empty when the
// run errored before producing one.
type Verdict struct {
	Status   string // "ok", "expected", or "fail"
	Args     string // canonical scenario flag string (Scenario.Args)
	Expected string // classification when Status == "expected"

	// Run-report facts (present when the run completed).
	Iters        int
	Converged    bool
	RelRes       string // hex float64
	Time         string // hex float64 (modeled seconds)
	Energy       string // hex float64 (modeled joules)
	SolutionHash string
	HistoryHash  string

	// Violations renders each failed invariant as "name: detail"
	// (run-level errors appear as "run-error: ..."). Non-empty exactly
	// when Status == "fail".
	Violations []string
}

// verdictVersion prefixes every encoded verdict so a future codec change
// can never alias lines produced by an older one.
const verdictVersion = "v1"

// Statuses a verdict can carry.
const (
	StatusOK       = "ok"
	StatusExpected = "expected"
	StatusFail     = "fail"
)

// Encode renders the verdict as one deterministic line: space-separated
// key=value fields in fixed order, free-text values Go-quoted. ParseVerdict
// inverts it exactly (pinned by TestVerdictRoundTrip and the fleet codec
// property test).
func (v *Verdict) Encode() string {
	var b strings.Builder
	b.WriteString(verdictVersion)
	fmt.Fprintf(&b, " status=%s", v.Status)
	fmt.Fprintf(&b, " args=%s", strconv.Quote(v.Args))
	if v.Expected != "" {
		fmt.Fprintf(&b, " expected=%s", strconv.Quote(v.Expected))
	}
	if v.RelRes != "" {
		fmt.Fprintf(&b, " iters=%d converged=%t relres=%s time=%s energy=%s xhash=%s hhash=%s",
			v.Iters, v.Converged, v.RelRes, v.Time, v.Energy, v.SolutionHash, v.HistoryHash)
	}
	for _, viol := range v.Violations {
		fmt.Fprintf(&b, " violation=%s", strconv.Quote(viol))
	}
	return b.String()
}

// ParseVerdict decodes one line produced by Encode. It validates the
// version, the status, and every field syntactically; re-encoding the
// result reproduces the input byte-for-byte.
func ParseVerdict(line string) (*Verdict, error) {
	rest, ok := strings.CutPrefix(line, verdictVersion+" ")
	if !ok {
		return nil, fmt.Errorf("chaos: verdict line missing %q prefix: %q", verdictVersion, line)
	}
	v := &Verdict{}
	seenReport := false
	for rest != "" {
		rest = strings.TrimPrefix(rest, " ")
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("chaos: verdict token %q has no '='", rest)
		}
		key, val := rest[:eq], rest[eq+1:]
		var raw string
		if strings.HasPrefix(val, `"`) {
			q, err := strconv.QuotedPrefix(val)
			if err != nil {
				return nil, fmt.Errorf("chaos: verdict field %s has a torn quote: %v", key, err)
			}
			raw, err = strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("chaos: verdict field %s: %v", key, err)
			}
			rest = val[len(q):]
		} else {
			end := strings.IndexByte(val, ' ')
			if end < 0 {
				end = len(val)
			}
			raw = val[:end]
			rest = val[end:]
		}
		switch key {
		case "status":
			switch raw {
			case StatusOK, StatusExpected, StatusFail:
				v.Status = raw
			default:
				return nil, fmt.Errorf("chaos: unknown verdict status %q", raw)
			}
		case "args":
			v.Args = raw
		case "expected":
			v.Expected = raw
		case "iters":
			n, err := strconv.Atoi(raw)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad verdict iters %q: %v", raw, err)
			}
			v.Iters = n
			seenReport = true
		case "converged":
			t, err := strconv.ParseBool(raw)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad verdict converged %q: %v", raw, err)
			}
			v.Converged = t
		case "relres", "time", "energy":
			if _, err := strconv.ParseFloat(raw, 64); err != nil {
				return nil, fmt.Errorf("chaos: bad verdict %s %q: %v", key, raw, err)
			}
			switch key {
			case "relres":
				v.RelRes = raw
			case "time":
				v.Time = raw
			case "energy":
				v.Energy = raw
			}
		case "xhash":
			v.SolutionHash = raw
		case "hhash":
			v.HistoryHash = raw
		case "violation":
			v.Violations = append(v.Violations, raw)
		default:
			return nil, fmt.Errorf("chaos: unknown verdict field %q", key)
		}
	}
	if v.Status == "" {
		return nil, fmt.Errorf("chaos: verdict line has no status: %q", line)
	}
	if seenReport && v.RelRes == "" {
		return nil, fmt.Errorf("chaos: verdict has iters but no relres: %q", line)
	}
	if (v.Status == StatusFail) != (len(v.Violations) > 0) {
		return nil, fmt.Errorf("chaos: verdict status %q disagrees with %d violations", v.Status, len(v.Violations))
	}
	return v, nil
}

// VerdictOf folds a campaign Result into its wire verdict. Both halves of
// the fleet determinism contract go through it: the in-process oracle
// directly, and the service's verdict-bearing job result (which the fleet
// driver forwards untouched) — so fleet and oracle streams can only agree
// byte-for-byte.
func VerdictOf(r *Result) *Verdict {
	v := &Verdict{Args: r.Scenario.Args(), Expected: r.Expected}
	switch {
	case r.Failed():
		v.Status = StatusFail
	case r.Expected != "":
		v.Status = StatusExpected
	default:
		v.Status = StatusOK
	}
	if r.Err != nil {
		v.Violations = append(v.Violations, "run-error: "+r.Err.Error())
	}
	for _, viol := range r.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	if rep := r.Report; rep != nil {
		v.Iters = rep.Iters
		v.Converged = rep.Converged
		v.RelRes = HexFloat(rep.RelRes)
		v.Time = HexFloat(rep.Time)
		v.Energy = HexFloat(rep.Energy)
		v.SolutionHash = HashFloats(rep.Solution)
		v.HistoryHash = HashFloats(rep.History)
	}
	return v
}

// SelfTestViolation is the violation the campaign's -break hook injects:
// a deliberate failure proving the detection/shrinking pipeline
// end-to-end.
func SelfTestViolation(invariant string) Violation {
	return Violation{Invariant: invariant, Detail: "deliberately broken via -break (checker self-test)"}
}

// Break applies the campaign's -break hook to a scenario's result: a
// non-empty invariant is violated on purpose in every scenario with
// faults (a fault-free run has nothing for the shrinker to remove). The
// in-process oracle, the service's verdict jobs and chaos-fleet -replay
// all apply the hook through here, so their verdicts for one scenario
// stay byte-identical.
func (r *Result) Break(invariant string) {
	if invariant != "" && len(r.Scenario.Faults) > 0 {
		r.Violations = append(r.Violations, SelfTestViolation(invariant))
	}
}

// HexFloat renders a float64 with every bit intact ('x' format
// round-trips exactly; %g does not).
func HexFloat(v float64) string {
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// HashFloats folds a vector to an FNV-1a-64 hash over the little-endian
// bit patterns of its elements, preceded by the length — small on the
// wire, sensitive to any single-ULP difference.
func HashFloats(xs []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
