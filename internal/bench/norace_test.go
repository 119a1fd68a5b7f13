//go:build !race

package bench

// raceBuild reports a build with the race detector on (see race_test.go).
const raceBuild = false
