package experiments

import (
	"os"
	"testing"

	"resilience/internal/matgen"
)

// TestCICheck runs selected experiments at CI scale when RES_CI=1.
func TestCICheck(t *testing.T) {
	if os.Getenv("RES_CI") == "" {
		t.Skip("set RES_CI=1 to run CI-scale experiment checks")
	}
	cfg := Default(matgen.CI)
	for _, id := range []string{"tab5"} {
		r, _ := Get(id)
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		t.Logf("%s:\n%s", id, res.String())
	}
}

// TestPaperScaleCapability verifies the paper-scale generation path end
// to end on the smallest Table 3 matrix when RES_PAPER=1 (it is exact at
// paper size already: bcsstk06 has 420 rows).
func TestPaperScaleCapability(t *testing.T) {
	if os.Getenv("RES_PAPER") == "" {
		t.Skip("set RES_PAPER=1 to exercise paper-scale generation")
	}
	cfg := Default(matgen.Paper)
	cfg.Ranks = 8
	out, err := cfg.run(cell{matrix: "bcsstk06"})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].ff.Converged {
		t.Fatalf("paper-scale bcsstk06 did not converge")
	}
}

func TestDefaultConfigs(t *testing.T) {
	for _, sc := range []matgen.Scale{matgen.Tiny, matgen.CI, matgen.Paper} {
		cfg := Default(sc)
		if cfg.Ranks <= 0 || cfg.Tol <= 0 || cfg.Faults != 10 || cfg.Plat == nil {
			t.Errorf("scale %v: bad defaults %+v", sc, cfg)
		}
	}
	if Default(matgen.Paper).Ranks != 192 {
		t.Error("paper scale must use the cluster's 192 cores")
	}
}
