package engine

// SetTargetBudget replaces the targeted-request budget (n/32 settled vertices)
// so that tests on small graphs have an always-bail and a never-bail arm; call
// it before the engine serves.
func (e *Engine) SetTargetBudget(settled int) { e.targetBudget = settled }
