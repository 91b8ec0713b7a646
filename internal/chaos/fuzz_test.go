package chaos

import "testing"

// FuzzScenarioArgs fuzzes the campaign-config decoder: any input either
// fails to parse, or parses to a scenario whose canonical encoding is a
// fixpoint of ParseArgs — Parse(Encode(Parse(x))) == Parse(x). The seed
// corpus (also checked in under testdata/fuzz) covers every flag, all
// fault classes, clustered faults, near-miss malformed inputs and the
// retired -jacobi flag, which must be rejected, plus
// every scenario the fleet distilled as interesting from a real
// campaign (testdata/corpus/distilled.txt).
func FuzzScenarioArgs(f *testing.F) {
	for _, e := range readDistilled(f) {
		f.Add(e.Args)
	}
	f.Add("")
	f.Add("-grid 8 -ranks 4 -scheme LI-DVFS -tol 1e-10 -ckpt 6 -detect 2 -seed 7 -faults SNF@5:r2,SDC@9:r0")
	f.Add("-grid 6 -ranks 1 -scheme CR-M -tol 1e-08 -ckpt 2 -detect 0 -seed 1 -jacobi") // retired flag: rejected
	f.Add("-grid 10 -ranks 6 -scheme F0 -faults DCE@1:r0,DUE@1:r1,SWO@2:r5,LNF@2:r3")
	f.Add("-scheme LSI(QR) -jacobi -faults SNF@33:r0")
	f.Add("-tol 1e-320 -seed -9223372036854775808")
	f.Add("-faults SNF@5:r2,")
	f.Add("-grid 08 -ranks 004")
	f.Fuzz(func(t *testing.T, args string) {
		s, err := ParseArgs(args)
		if err != nil {
			return // malformed input rejected: fine
		}
		enc := s.Args()
		back, err := ParseArgs(enc)
		if err != nil {
			t.Fatalf("canonical encoding of %q does not re-parse: %q: %v", args, enc, err)
		}
		if back.Args() != enc {
			t.Fatalf("encoding is not a fixpoint:\n in: %s\nout: %s", enc, back.Args())
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("re-parsed scenario invalid: %v", err)
		}
	})
}
