package tornado

import (
	"reflect"
	"slices"
	"testing"
)

// optionsSurface is every exported settable value of the public options and
// the non-test caller that sets it. A value no caller sets is a constant of
// the package that uses it (DESIGN.md "Configuration surface"), so a new
// field fails TestOptionsSurface until this list names its caller.
var optionsSurface = map[string]string{
	"Options.Processors":             "cmd/tornado-shell -procs",
	"Options.DelayBound":             "cmd/tornado-shell -bound",
	"Options.Store":                  "deployment setting: storage.OpenDisk for durable checkpoints",
	"Options.Wire":                   "cmd/tornado-shell -wire; benchmark/workloads.go",
	"Options.Seed":                   "every failure replays from its seed (ROADMAP item 1)",
	"Options.HeartbeatInterval":      "cmd/tornado-shell -heartbeat",
	"Options.MetricsAddr":            "deployment setting: cmd/tornado-shell -metrics",
	"Options.SpanSampleRate":         "cmd/tornado-shell -span-sample",
	"FlowOptions.DelayBoundCeiling":  "benchmark/workloads.go (deprecated, ignored)",
	"ElasticOptions.MaxProcessors":   "cmd/tornado-shell -spares",
	"ElasticOptions.AutoScale":       "cmd/tornado-shell -autoscale",
	"QueryOptions.Workers":           "internal/bench/queries.go",
	"QueryOptions.QueueCap":          "internal/bench/queries.go",
	"QueryOptions.DisableCoalescing": "internal/bench/queries.go",
	"QueryOptions.DisableCache":      "internal/bench/queries.go",
}

// TestOptionsSurface holds the exported fields of Options, FlowOptions,
// ElasticOptions and QueryOptions to optionsSurface. The nested option
// structs are containers, not values, and are counted through their fields.
func TestOptionsSurface(t *testing.T) {
	nested := []reflect.Type{
		reflect.TypeOf(FlowOptions{}), reflect.TypeOf(ElasticOptions{}), reflect.TypeOf(QueryOptions{}),
	}
	var got []string
	for _, s := range []struct {
		name string
		typ  reflect.Type
	}{
		{"Options", reflect.TypeOf(Options{})},
		{"FlowOptions", nested[0]},
		{"ElasticOptions", nested[1]},
		{"QueryOptions", nested[2]},
	} {
		for _, f := range reflect.VisibleFields(s.typ) {
			if f.IsExported() && !slices.Contains(nested, f.Type) {
				got = append(got, s.name+"."+f.Name)
			}
		}
	}
	for _, name := range got {
		if _, ok := optionsSurface[name]; !ok {
			t.Errorf("%s has no caller in optionsSurface: name the non-test caller that sets it, or make it a constant", name)
		}
	}
	for name := range optionsSurface {
		if !slices.Contains(got, name) {
			t.Errorf("optionsSurface lists %s, which is not an exported field", name)
		}
	}
}
