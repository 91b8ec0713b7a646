package experiments

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"
)

// tinyGolden pins the rendered output of every registered experiment at
// Default(Tiny): one "<id> <sha256 of Result.String()>" line each.
const tinyGolden = "testdata/tiny.golden"

// readTinyGolden parses tinyGolden into id -> digest.
func readTinyGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(tinyGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", tinyGolden, sc.Text())
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSmokeAllTiny runs every registered experiment at tiny scale and
// requires its rendered tables to hash to the committed pin.
func TestSmokeAllTiny(t *testing.T) {
	want := readTinyGolden(t)
	cfg := Default(0) // Tiny
	runners := All()
	if len(want) != len(runners) {
		t.Errorf("%s pins %d experiments, %d are registered", tinyGolden, len(want), len(runners))
	}
	for _, r := range runners {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			out := res.String()
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want[r.ID] {
				t.Errorf("%s: output hashes to %s, %s pins %q:\n%s", r.ID, got, tinyGolden, want[r.ID], out)
			}
		})
	}
}
