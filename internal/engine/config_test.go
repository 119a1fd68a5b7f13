package engine

import (
	"reflect"
	"slices"
	"testing"
)

// configSurface is every exported field of Config and the non-test caller
// that sets it. A field only the engine or its tests set is unexported, so a
// new exported field fails TestConfigSurface until this list names its
// caller.
var configSurface = map[string]string{
	"Processors":          "tornado.New; internal/bench",
	"MaxProcessors":       "tornado.New (Elastic.MaxProcessors); internal/bench/elastic.go",
	"DelayBound":          "tornado.New; internal/bench; query overrides in internal/bench/tab2fig8.go",
	"Kind":                "tornado.New (main loop); ForkBranch (branch loop)",
	"LoopID":              "tornado.New; internal/bench",
	"Store":               "tornado.New; internal/bench",
	"Program":             "tornado.New; internal/bench",
	"Delta":               "tornado.NewDelta; internal/bench/delta.go",
	"Partition":           "internal/bench/elastic.go",
	"ResendAfter":         "internal/bench/wire.go",
	"MaxBatch":            "internal/bench/throughput.go, wire.go",
	"CommitDelay":         "internal/bench/tab2fig8.go, elastic.go",
	"Wire":                "tornado.New (Options.Wire); internal/bench/wire.go",
	"MaxPendingInputs":    "tornado.New; internal/bench/overload.go",
	"InboxHigh":           "tornado.New; internal/bench/overload.go",
	"InboxLow":            "internal/bench/overload.go",
	"Seed":                "tornado.New; internal/bench",
	"Obs":                 "tornado.New; internal/bench/traceoverhead.go",
	"HeartbeatInterval":   "tornado.New (cmd/tornado-shell -heartbeat)",
	"DisablePrepareSkip":  "internal/bench/ablation.go",
	"DisableJournalPrune": "internal/bench/ablation.go",
}

// TestConfigSurface holds Config's exported fields to configSurface.
func TestConfigSurface(t *testing.T) {
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if f.IsExported() {
			got = append(got, f.Name)
		}
	}
	for _, name := range got {
		if _, ok := configSurface[name]; !ok {
			t.Errorf("Config.%s has no caller in configSurface: name the non-test caller that sets it, or unexport it", name)
		}
	}
	for name := range configSurface {
		if !slices.Contains(got, name) {
			t.Errorf("configSurface lists %s, which is not an exported Config field", name)
		}
	}
}
