package flow

import "testing"

func sampleLoads(hotRate float64) []PartitionLoad {
	return []PartitionLoad{
		{Proc: 0, Active: true, Vertices: 100, UpdateRate: hotRate},
		{Proc: 1, Active: true, Vertices: 100, UpdateRate: 10},
		{Proc: 2, Active: true, Vertices: 100, UpdateRate: 10},
		{Proc: 3, Active: false},
	}
}

func TestScalePlannerSplitsConcentratedHeat(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	var d Decision
	for i := 0; i < 3; i++ {
		if d.Action != ScaleNone {
			t.Fatalf("decided %v after %d samples; want 3", d.Action, i)
		}
		d = p.Decide(1, sampleLoads(500), true)
	}
	if d.Action != ScaleSplit || d.Proc != 0 {
		t.Fatalf("got %v proc %d; want split of proc 0", d.Action, d.Proc)
	}
}

func TestScalePlannerIgnoresUniformOverload(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	loads := sampleLoads(11) // hottest barely above mean: not concentrated
	for i := 0; i < 10; i++ {
		if d := p.Decide(1, loads, true); d.Action != ScaleNone {
			t.Fatalf("split a uniformly overloaded system at sample %d", i)
		}
	}
}

func TestScalePlannerNeedsSustainedDegradation(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	p.Decide(1, sampleLoads(500), true)
	p.Decide(1, sampleLoads(500), true)
	// One healthy sample resets the streak.
	if d := p.Decide(0, sampleLoads(500), true); d.Action != ScaleNone {
		t.Fatalf("acted on a healthy sample: %v", d.Action)
	}
	p.Decide(1, sampleLoads(500), true)
	p.Decide(1, sampleLoads(500), true)
	if d := p.Decide(1, sampleLoads(500), true); d.Action != ScaleSplit {
		t.Fatalf("streak did not re-arm after reset: %v", d.Action)
	}
}

func TestScalePlannerNeedsSpareAndSize(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	for i := 0; i < 10; i++ {
		if d := p.Decide(1, sampleLoads(500), false); d.Action != ScaleNone {
			t.Fatalf("split without a spare slot: %v", d.Action)
		}
	}
	small := sampleLoads(500)
	small[0].Vertices = 4
	for i := 0; i < 10; i++ {
		if d := p.Decide(1, small, true); d.Action != ScaleNone {
			t.Fatalf("split a %d-vertex partition: %v", small[0].Vertices, d.Action)
		}
	}
}

func TestScalePlannerMergesIdleScaledPartition(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	loads := []PartitionLoad{
		{Proc: 0, Active: true, Vertices: 100, UpdateRate: 50},
		{Proc: 1, Active: true, Vertices: 100, UpdateRate: 50},
		{Proc: 3, Active: true, Scaled: true, Vertices: 40, UpdateRate: 1},
	}
	var d Decision
	for i := 0; i < 8; i++ {
		if d.Action != ScaleNone {
			t.Fatalf("merged after %d samples; want 8", i)
		}
		d = p.Decide(0, loads, false)
	}
	if d.Action != ScaleMerge || d.Proc != 3 {
		t.Fatalf("got %v proc %d; want merge of proc 3", d.Action, d.Proc)
	}
	// Base partitions never merge, even when idle.
	base := []PartitionLoad{
		{Proc: 0, Active: true, Vertices: 100, UpdateRate: 50},
		{Proc: 1, Active: true, Vertices: 100, UpdateRate: 1},
	}
	p2 := NewScalePlanner(ScalePlannerOptions{})
	for i := 0; i < 20; i++ {
		if d := p2.Decide(0, base, false); d.Action != ScaleNone {
			t.Fatalf("merged a base partition: %v proc %d", d.Action, d.Proc)
		}
	}
}

func TestScalePlannerMergeNeedsCalmLadder(t *testing.T) {
	p := NewScalePlanner(ScalePlannerOptions{})
	loads := []PartitionLoad{
		{Proc: 0, Active: true, Vertices: 100, UpdateRate: 50},
		{Proc: 3, Active: true, Scaled: true, Vertices: 40, UpdateRate: 1},
	}
	for i := 0; i < 20; i++ {
		// 0.7 sits in the dead band between mergeBelow and splitAbove.
		if d := p.Decide(0.7, loads, false); d.Action != ScaleNone {
			t.Fatalf("merged under mid-band pressure: %v", d.Action)
		}
	}
}
