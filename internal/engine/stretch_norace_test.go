//go:build !race

package engine

// raceStretch widens wire-soak failure-detection windows under the race
// detector (see stretch_race_test.go); 1 = no stretch in normal builds.
const raceStretch = 1

// raceBuild reports a -race build.
const raceBuild = false
