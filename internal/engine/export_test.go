package engine

// WithSnapshot returns cfg with the branch snapshot set, for tests in package
// engine_test that bootstrap a branch loop from a store they filled by hand.
func WithSnapshot(cfg Config, snap *SnapshotSource) Config {
	cfg.snapshot = snap
	return cfg
}

// AdmissionStopped reports whether a repartition holds, or is taking, e's
// admission stop: an Ingest issued now would wait for it.
func AdmissionStopped(e *Engine) bool {
	if e.admit.TryRLock() {
		e.admit.RUnlock()
		return false
	}
	return true
}
