package engine

// WithSnapshot returns cfg with the branch snapshot set, for tests in package
// engine_test that bootstrap a branch loop from a store they filled by hand.
func WithSnapshot(cfg Config, snap *SnapshotSource) Config {
	cfg.snapshot = snap
	return cfg
}

// MigrationActive reports whether a migration holds e's coordinator slot.
func MigrationActive(e *Engine) bool {
	e.migMu.Lock()
	defer e.migMu.Unlock()
	return e.migActive
}
