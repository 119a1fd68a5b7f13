//go:build race

package engine

// raceBuild reports a -race build: instrumentation slows every goroutine,
// and sync.Pool drops a quarter of its puts, so tests that repeat a run or
// count allocations scale down or skip under it.
const raceBuild = true
