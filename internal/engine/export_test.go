package engine

// SetTargetBudget replaces the targeted-request budget (n/32 settled vertices)
// so that tests on small graphs have an always-bail and a never-bail arm; call
// it before g serves.
func (g *Gen) SetTargetBudget(settled int) { g.targetBudget = settled }

// SetRepairBudget replaces the settles a pending entry's repair may spend
// (n/8, at least 64), so that tests reach the budget on small graphs; call it
// before g serves.
func (g *Gen) SetRepairBudget(settled int) { g.repairBudget = settled }

// peek reports whether key is cached and changes nothing: it neither refreshes
// the entry nor counts as having asked for it.
func (c *slru) peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// joined is how many callers beside its leader wait on the execution in
// flight for key; 0 if none is in flight.
func (g *flightGroup) joined(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.waiting - 1
	}
	return 0
}
