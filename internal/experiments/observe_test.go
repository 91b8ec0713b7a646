package experiments

import "testing"

// TestObserveDeterminism asserts the rendered experiment output is
// byte-identical with and without a recorder attached to every cell solve
// (the observability purity guarantee exercised across the full matrix;
// fig3 adds Poisson fault injection and recovery to the mix).
func TestObserveDeterminism(t *testing.T) {
	cfg := Default(0) // Tiny
	for _, id := range []string{"fig5", "fig3"} {
		id := id
		t.Run(id, func(t *testing.T) {
			r, ok := Get(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			render := func(observe bool) string {
				c := cfg
				c.Observe = observe
				res, err := r.Run(c)
				if err != nil {
					t.Fatalf("%s with Observe=%t: %v", id, observe, err)
				}
				return res.String()
			}
			plain := render(false)
			observed := render(true)
			if plain != observed {
				t.Errorf("%s output differs with observation:\n--- plain ---\n%s\n--- observed ---\n%s",
					id, plain, observed)
			}
		})
	}
}
