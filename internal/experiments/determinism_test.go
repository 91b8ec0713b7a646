package experiments

import (
	"runtime"
	"testing"
)

// TestEngineDeterminism asserts the rendered output of an experiment is
// byte-identical whether the engine runs its cells sequentially or on
// eight workers. fig5 and tab5 cover the widest fan-outs (matrix x scheme
// grids with cached FF baselines); fig3 covers Poisson fault injection,
// proving each cell's RNG is isolated from scheduling order.
func TestEngineDeterminism(t *testing.T) {
	cfg := Default(0) // Tiny
	for _, id := range []string{"fig5", "tab5", "fig3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			render := func(workers int) string {
				c := cfg
				c.Workers = workers
				res, err := r.Run(c)
				if err != nil {
					t.Fatalf("%s with Workers=%d: %v", id, workers, err)
				}
				return res.String()
			}
			seq := render(1)
			par := render(8)
			if seq != par {
				t.Errorf("%s output differs between Workers=1 and Workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, seq, par)
			}
		})
	}
}

// TestWorkersResolution: Config.Workers when set, else GOMAXPROCS.
func TestWorkersResolution(t *testing.T) {
	if got := (Config{Workers: 5}).workers(); got != 5 {
		t.Errorf("Workers=5: workers() = %d, want 5", got)
	}
	if got, want := (Config{}).workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers unset: workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}
