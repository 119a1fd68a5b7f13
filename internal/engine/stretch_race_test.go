//go:build race

package engine

// raceStretch widens wire-soak failure-detection windows when the race
// detector is on: instrumentation multiplies the CPU cost of serializing
// every frame, and on a small box that stretches replay storms and GC
// pauses past windows that comfortably hold in normal builds. Deployments
// tune detection to transport latency; tests must tune it to the build.
const raceStretch = 3

// raceBuild reports a -race build.
const raceBuild = true
