package dataflow

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// sliceSpout replays payloads once, tracking acks and fails; failed payloads
// are re-queued (at-least-once).
type sliceSpout struct {
	mu      sync.Mutex
	queue   []any
	acked   []any
	failed  []any
	replay  bool
	emitted int
}

func newSliceSpout(replay bool, payloads ...any) *sliceSpout {
	return &sliceSpout{queue: payloads, replay: replay}
}

func (s *sliceSpout) Next() (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil, false
	}
	p := s.queue[0]
	s.queue = s.queue[1:]
	s.emitted++
	return p, true
}

func (s *sliceSpout) Ack(p any) {
	s.mu.Lock()
	s.acked = append(s.acked, p)
	s.mu.Unlock()
}

func (s *sliceSpout) Fail(p any) {
	s.mu.Lock()
	s.failed = append(s.failed, p)
	if s.replay {
		s.queue = append(s.queue, p)
	}
	s.mu.Unlock()
}

func (s *sliceSpout) ackedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acked)
}

func (s *sliceSpout) failedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.failed)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// collectBolt records every payload it sees.
type collectBolt struct {
	mu   sync.Mutex
	seen []any
}

func (b *collectBolt) Execute(t Tuple, _ *Collector) {
	b.mu.Lock()
	b.seen = append(b.seen, t.Payload)
	b.mu.Unlock()
}

func (b *collectBolt) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen)
}

func TestLinearTopologyProcessesAndAcks(t *testing.T) {
	topo := NewTopology(time.Second)
	spout := newSliceSpout(false, "a", "b", "c")
	sink := &collectBolt{}
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("sink", sink, 2))
	must(t, topo.Subscribe("sink", "src", Shuffle(1)))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "3 payloads processed", func() bool { return sink.count() == 3 })
	waitFor(t, "3 spout acks", func() bool { return spout.ackedCount() == 3 })
	if topo.PendingTrees() != 0 {
		t.Fatalf("%d trees still pending", topo.PendingTrees())
	}
}

// splitBolt fans each sentence out into words.
type splitBolt struct{}

func (splitBolt) Execute(t Tuple, c *Collector) {
	for _, w := range strings.Fields(t.Payload.(string)) {
		c.Emit(w)
	}
}

// countBolt tallies words.
type countBolt struct {
	mu     sync.Mutex
	counts map[string]int
}

func (b *countBolt) Execute(t Tuple, _ *Collector) {
	b.mu.Lock()
	if b.counts == nil {
		b.counts = map[string]int{}
	}
	b.counts[t.Payload.(string)]++
	b.mu.Unlock()
}

func (b *countBolt) get(w string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[w]
}

func TestWordCountWithFieldsGrouping(t *testing.T) {
	topo := NewTopology(2 * time.Second)
	spout := newSliceSpout(false, "to be or not to be", "to thine own self be true")
	counter := &countBolt{}
	must(t, topo.AddSpout("sentences", spout))
	must(t, topo.AddBolt("split", splitBolt{}, 2))
	must(t, topo.AddBolt("count", counter, 3))
	must(t, topo.Subscribe("split", "sentences", Shuffle(2)))
	key := func(p any) uint64 {
		h := uint64(14695981039346656037)
		for _, c := range []byte(p.(string)) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		return h
	}
	must(t, topo.Subscribe("count", "split", Fields(key)))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "both trees acked", func() bool { return spout.ackedCount() == 2 })
	if got := counter.get("to"); got != 3 {
		t.Fatalf("count(to) = %d; want 3", got)
	}
	if got := counter.get("be"); got != 3 {
		t.Fatalf("count(be) = %d; want 3", got)
	}
	if got := counter.get("true"); got != 1 {
		t.Fatalf("count(true) = %d; want 1", got)
	}
}

func TestFieldsGroupingIsStable(t *testing.T) {
	// Property: for any key and task count, Fields is deterministic and in
	// range, and equal keys land on equal tasks.
	g := Fields(func(p any) uint64 { return uint64(p.(int)) })
	f := func(v int, tasksRaw uint8) bool {
		tasks := int(tasksRaw%16) + 1
		a := g.Select(v, tasks)
		b := g.Select(v, tasks)
		return len(a) == 1 && a[0] == b[0] && a[0] >= 0 && a[0] < tasks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleGroupingCoversTasks(t *testing.T) {
	g := Shuffle(7)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		sel := g.Select(i, 4)
		if len(sel) != 1 || sel[0] < 0 || sel[0] >= 4 {
			t.Fatalf("Shuffle selected %v", sel)
		}
		seen[sel[0]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("shuffle used only %d of 4 tasks", len(seen))
	}
}

func TestAllGroupingReplicates(t *testing.T) {
	topo := NewTopology(time.Second)
	spout := newSliceSpout(false, "x")
	sink := &collectBolt{}
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("sink", sink, 4))
	must(t, topo.Subscribe("sink", "src", All()))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "payload replicated to all tasks", func() bool { return sink.count() == 4 })
	waitFor(t, "tree acked", func() bool { return spout.ackedCount() == 1 })
}

func TestGlobalGroupingSingleTask(t *testing.T) {
	if got := Global().Select("anything", 9); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Global = %v; want [0]", got)
	}
}

// flakyBolt panics on the first attempt for each payload, succeeding after.
type flakyBolt struct {
	mu    sync.Mutex
	tried map[any]bool
	done  atomic.Int64
}

func (b *flakyBolt) Execute(t Tuple, _ *Collector) {
	b.mu.Lock()
	first := !b.tried[t.Payload]
	b.tried[t.Payload] = true
	b.mu.Unlock()
	if first {
		panic("transient failure")
	}
	b.done.Add(1)
}

func TestFailureReplaysTuple(t *testing.T) {
	topo := NewTopology(time.Second)
	spout := newSliceSpout(true, 1, 2, 3)
	bolt := &flakyBolt{tried: map[any]bool{}}
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("flaky", bolt, 1))
	must(t, topo.Subscribe("flaky", "src", Global()))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "all payloads eventually processed", func() bool { return bolt.done.Load() == 3 })
	waitFor(t, "all payloads eventually acked", func() bool { return spout.ackedCount() == 3 })
	if spout.failedCount() != 3 {
		t.Fatalf("failed %d trees; want 3 (one transient failure each)", spout.failedCount())
	}
}

// stuckBolt never acks: trees must expire via the timeout.
type stuckBolt struct{ block chan struct{} }

func (b stuckBolt) Execute(Tuple, *Collector) { <-b.block }

func TestTreeTimeoutFailsSpoutTuple(t *testing.T) {
	topo := NewTopology(50 * time.Millisecond)
	spout := newSliceSpout(false, "doomed")
	bolt := stuckBolt{block: make(chan struct{})}
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("stuck", bolt, 1))
	must(t, topo.Subscribe("stuck", "src", Global()))
	must(t, topo.Start())
	defer func() {
		close(bolt.block)
		topo.Stop()
	}()
	waitFor(t, "timeout-failed tuple", func() bool { return spout.failedCount() == 1 })
	if spout.ackedCount() != 0 {
		t.Fatal("stuck tuple was acked")
	}
}

func TestMultiStageTreeCompletesOnlyWhenAllLeavesDo(t *testing.T) {
	// src -> fan (emits 5 children) -> sink(3 tasks). The spout tuple must
	// ack only after all 5 children are executed.
	topo := NewTopology(2 * time.Second)
	spout := newSliceSpout(false, "root")
	var leaves atomic.Int64
	fan := BoltFunc(func(t Tuple, c *Collector) {
		for i := 0; i < 5; i++ {
			c.Emit(fmt.Sprintf("child-%d", i))
		}
	})
	sink := BoltFunc(func(t Tuple, c *Collector) {
		leaves.Add(1)
	})
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("fan", fan, 1))
	must(t, topo.AddBolt("sink", sink, 3))
	must(t, topo.Subscribe("fan", "src", Global()))
	must(t, topo.Subscribe("sink", "fan", Shuffle(3)))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "tree acked", func() bool { return spout.ackedCount() == 1 })
	if got := leaves.Load(); got != 5 {
		t.Fatalf("leaves executed = %d; want 5", got)
	}
}

func TestSpoutWithNoSubscribersAcksImmediately(t *testing.T) {
	topo := NewTopology(time.Second)
	spout := newSliceSpout(false, "lonely")
	must(t, topo.AddSpout("src", spout))
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "self-ack", func() bool { return spout.ackedCount() == 1 })
}

// TestCyclicTopologyStarvesAcker demonstrates the paper's Section 5.3
// argument for why Storm's tuple-tree acking cannot guarantee Tornado's
// iterative dataflow: in a cyclic topology where processing keeps emitting
// (as iterative updates do), the tuple tree never completes, so the spout
// tuple can only ever FAIL by timeout — even though real work is happening.
// Tornado's engine therefore uses causality-based reliability instead.
func TestCyclicTopologyStarvesAcker(t *testing.T) {
	topo := NewTopology(100 * time.Millisecond)
	spout := newSliceSpout(false, 0)
	var executions atomic.Int64
	// loop re-emits forever, as an iterative computation's updates would.
	loop := BoltFunc(func(tup Tuple, c *Collector) {
		executions.Add(1)
		c.Emit(tup.Payload.(int) + 1)
	})
	must(t, topo.AddSpout("src", spout))
	must(t, topo.AddBolt("loop", loop, 1))
	must(t, topo.Subscribe("loop", "src", Global()))
	must(t, topo.Subscribe("loop", "loop", Global())) // the cycle
	must(t, topo.Start())
	defer topo.Stop()
	waitFor(t, "tree failed by timeout", func() bool { return spout.failedCount() == 1 })
	if spout.ackedCount() != 0 {
		t.Fatal("an amplifying cyclic tree was acked")
	}
	if executions.Load() < 10 {
		t.Fatalf("the cycle barely ran (%d executions); the starvation case needs real work in flight", executions.Load())
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := NewTopology(time.Second)
	must(t, topo.AddSpout("src", newSliceSpout(false)))
	if err := topo.AddSpout("src", newSliceSpout(false)); err == nil {
		t.Fatal("duplicate component accepted")
	}
	if err := topo.AddBolt("b", nil, 0); err == nil {
		t.Fatal("zero-task bolt accepted")
	}
	if err := topo.Subscribe("nope", "src", Global()); err == nil {
		t.Fatal("subscribe to unknown bolt accepted")
	}
	if err := topo.Subscribe("src", "src", Global()); err == nil {
		t.Fatal("subscribing a spout accepted")
	}
	must(t, topo.AddBolt("b", &collectBolt{}, 1))
	if err := topo.Subscribe("b", "ghost", Global()); err == nil {
		t.Fatal("subscribe from unknown component accepted")
	}
	must(t, topo.Start())
	defer topo.Stop()
	if err := topo.AddBolt("late", &collectBolt{}, 1); err == nil {
		t.Fatal("adding components to a running topology accepted")
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestTupleIDSubsetsDoNotCancel: a tuple tree is complete when the XOR of
// everything registered and acknowledged reads zero, so no proper subset of a
// tree's delivery IDs may XOR to zero — or the acks of the others, arriving
// first, complete the tree with those deliveries still unexecuted. Bare
// counter IDs fail on the very first fan-out of five (3^5^6 == 0), which made
// TestMultiStageTreeCompletesOnlyWhenAllLeavesDo flake under load.
func TestTupleIDSubsetsDoNotCancel(t *testing.T) {
	topo := NewTopology(time.Second)
	topo.newID() // the spout's delivery
	for tree := 0; tree < 200; tree++ {
		var ids [5]uint64
		for i := range ids {
			ids[i] = uint64(topo.newID())
		}
		for subset := 1; subset < 1<<len(ids)-1; subset++ {
			var x uint64
			for i, id := range ids {
				if subset&(1<<i) != 0 {
					x ^= id
				}
			}
			if x == 0 {
				t.Fatalf("tree %d: deliveries %v: subset %05b XORs to zero", tree, ids, subset)
			}
		}
	}
}
