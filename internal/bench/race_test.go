//go:build race

package bench

// raceBuild reports a build with the race detector on. Its instrumentation
// slows the engine's goroutine-heavy paths several times more than the
// baselines' sequential loops, so tests that order wall clocks across
// engines assert only the modelled quantities under it.
const raceBuild = true
