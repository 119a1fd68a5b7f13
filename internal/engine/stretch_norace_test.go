//go:build !race

package engine

// raceBuild reports a -race build (see stretch_race_test.go).
const raceBuild = false
