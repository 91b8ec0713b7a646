package chaos

import "sort"

func cloneScenario(s *Scenario) *Scenario {
	out := *s
	out.Faults = append([]FaultSpec(nil), s.Faults...)
	return &out
}

// ShrinkCandidates returns the one-step simplifications of s, most
// aggressive first (dropping whole faults beats nudging their fields).
// Candidates may be invalid (callers filter through Validate); each is an
// independent clone, safe to evaluate in parallel — the distributed fleet
// evaluates a whole pass as one batch of server-side verdict jobs.
func ShrinkCandidates(s *Scenario) []*Scenario {
	var cands []*Scenario
	mod := func(f func(*Scenario)) {
		c := cloneScenario(s)
		f(c)
		cands = append(cands, c)
	}
	// Drop each fault.
	for i := range s.Faults {
		i := i
		mod(func(c *Scenario) {
			c.Faults = append(c.Faults[:i], c.Faults[i+1:]...)
		})
	}
	// Shrink the system and the cluster. Fault coordinates are clamped
	// back into range so the candidate stays valid.
	if s.Grid > 4 {
		mod(func(c *Scenario) { c.Grid = c.Grid - 1; clampFaults(c) })
		mod(func(c *Scenario) { c.Grid = 4; clampFaults(c) })
	}
	if s.Ranks > 1 {
		mod(func(c *Scenario) { c.Ranks = c.Ranks - 1; clampFaults(c) })
		mod(func(c *Scenario) { c.Ranks = 1; clampFaults(c) })
	}
	// Clear the optional machinery.
	if s.DetectDelay > 0 {
		mod(func(c *Scenario) { c.DetectDelay = 0 })
	}
	// Pull fault placements toward the origin.
	for i, f := range s.Faults {
		i, f := i, f
		if f.Iter > 1 {
			mod(func(c *Scenario) { c.Faults[i].Iter = 1; sortFaults(c) })
			mod(func(c *Scenario) { c.Faults[i].Iter = f.Iter / 2; sortFaults(c) })
		}
		if f.Rank > 0 {
			mod(func(c *Scenario) { c.Faults[i].Rank = 0 })
		}
	}
	if s.Seed != 1 {
		mod(func(c *Scenario) { c.Seed = 1 })
	}
	return cands
}

func clampFaults(c *Scenario) {
	for i := range c.Faults {
		if c.Faults[i].Rank >= c.Ranks {
			c.Faults[i].Rank = c.Ranks - 1
		}
	}
}

func sortFaults(c *Scenario) {
	sort.SliceStable(c.Faults, func(i, j int) bool { return c.Faults[i].Iter < c.Faults[j].Iter })
}
