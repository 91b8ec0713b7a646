package resilience

import (
	"fmt"
	"strings"

	"resilience/internal/core"
)

// SchemeNames lists the recognized scheme names in presentation order.
func SchemeNames() []string { return core.SchemeNames() }

// ParseScheme resolves a scheme name (case-insensitive) to its spec. The
// empty name means the fault-free baseline.
func ParseScheme(name string) (core.SchemeSpec, error) {
	if strings.TrimSpace(name) == "" {
		return core.SchemeSpec{Kind: core.FF}, nil
	}
	if spec, ok := core.ParseScheme(name); ok {
		return spec, nil
	}
	return core.SchemeSpec{}, fmt.Errorf("resilience: unknown scheme %q (known: %s)",
		name, strings.Join(SchemeNames(), ", "))
}
