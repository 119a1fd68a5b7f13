// Package dataflow is a Storm-like stream-processing substrate: topologies
// of spouts and bolts with parallel tasks, stream groupings, and Storm's
// XOR tuple-tree acking for at-least-once processing.
//
// The paper builds Tornado on Storm (Section 5.1) and explicitly discusses
// why Storm's guaranteed-message-passing mechanism — tracking the tree of
// tuples descending from each spout tuple and acknowledging the spout when
// the tree completes — does NOT carry over to Tornado's cyclic, amplifying
// dataflow (Section 5.3: "an update may lead to a large number of new
// updates... it's hard to track the propagation of the tuples because the
// topology is cyclic"). This package implements that substrate faithfully
// for the acyclic ingestion side: Tornado's ingesters are spouts, and
// System.AttachSource runs input delivery through a dataflow topology. The
// iteration engine keeps its own causality-based reliability.
package dataflow

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/transport"
)

// TupleID identifies one emitted tuple for ack tracking.
type TupleID uint64

// Tuple is a unit of data flowing through a topology.
type Tuple struct {
	// ID is unique per emission.
	ID TupleID
	// Root is the spout tuple this tuple descends from (its anchor tree).
	Root TupleID
	// Payload is the application data.
	Payload any
}

// Spout produces the topology's input stream.
type Spout interface {
	// Next returns the next payload, or ok=false when no tuple is currently
	// available (the executor will poll again; return ok=false forever when
	// exhausted).
	Next() (payload any, ok bool)
	// Ack notifies that the tuple tree rooted at the emission with the
	// given payload completed fully.
	Ack(payload any)
	// Fail notifies that the tree timed out or failed; the spout should
	// re-emit the payload if it wants at-least-once processing.
	Fail(payload any)
}

// Bolt processes tuples. Execute runs on a single task goroutine; emitting
// through the collector anchors descendants to the input's tree.
type Bolt interface {
	Execute(t Tuple, c *Collector)
}

// BoltFunc adapts a function to the Bolt interface.
type BoltFunc func(t Tuple, c *Collector)

// Execute implements Bolt.
func (f BoltFunc) Execute(t Tuple, c *Collector) { f(t, c) }

// Grouping selects the destination task(s) for a payload.
type Grouping interface {
	Select(payload any, tasks int) []int
}

type shuffleGrouping struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// Shuffle distributes payloads uniformly at random.
func Shuffle(seed int64) Grouping {
	return &shuffleGrouping{rng: rand.New(rand.NewSource(seed))}
}

func (g *shuffleGrouping) Select(_ any, tasks int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return []int{g.rng.Intn(tasks)}
}

type fieldsGrouping struct {
	key func(any) uint64
}

// Fields routes payloads with equal keys to the same task.
func Fields(key func(any) uint64) Grouping {
	return fieldsGrouping{key: key}
}

func (g fieldsGrouping) Select(payload any, tasks int) []int {
	h := fnv.New64a()
	var buf [8]byte
	k := g.key(payload)
	for i := 0; i < 8; i++ {
		buf[i] = byte(k >> (8 * i))
	}
	h.Write(buf[:])
	return []int{int(h.Sum64() % uint64(tasks))}
}

type allGrouping struct{}

// All replicates every payload to every task.
func All() Grouping { return allGrouping{} }

func (allGrouping) Select(_ any, tasks int) []int {
	out := make([]int, tasks)
	for i := range out {
		out[i] = i
	}
	return out
}

type globalGrouping struct{}

// Global routes every payload to task 0.
func Global() Grouping { return globalGrouping{} }

func (globalGrouping) Select(_ any, _ int) []int { return []int{0} }

// component is a declared spout or bolt.
type component struct {
	name  string
	spout Spout
	bolt  Bolt
	tasks int
	// subscriptions: upstream component name -> grouping.
	subs map[string]Grouping
	// resolved downstream edges: grouping + the subscriber's task nodes.
	downstream []edge
	taskBase   transport.NodeID
}

type edge struct {
	grouping Grouping
	to       *component
}

// Topology declares and runs a dataflow graph.
type Topology struct {
	mu         sync.Mutex
	components map[string]*component
	order      []string
	running    bool

	net     *transport.Network
	acker   *acker
	nextID  atomic.Uint64
	stopCh  chan struct{}
	wg      sync.WaitGroup
	timeout time.Duration

	// Flow control (set before Start). maxPending caps incomplete spout-tuple
	// trees: at the cap the spout executor stops pulling from the spout (while
	// still draining ack/fail notifications) until trees complete, so a slow
	// consumer translates into a paused source instead of an unbounded tracking
	// table. inboxHigh/inboxLow bound the topology transport's inboxes with
	// credit-based watermarks (see transport.Options).
	maxPending          int
	inboxHigh, inboxLow int
	spoutPauses         atomic.Int64
	spoutPausedNanos    atomic.Int64

	// treeObs, when set, observes each completed tuple tree's emit-to-ack
	// wall time (the feed wires it into the spout_tree stage histogram).
	treeObs func(time.Duration)

	// Processed counts tuples fully executed by bolts.
	Processed atomic.Int64
}

// NewTopology returns an empty topology. timeout is how long a spout
// tuple's tree may stay incomplete before it is failed back to the spout
// (0 = 30s).
func NewTopology(timeout time.Duration) *Topology {
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	return &Topology{
		components: make(map[string]*component),
		stopCh:     make(chan struct{}),
		timeout:    timeout,
	}
}

// AddSpout declares a spout with one task.
func (t *Topology) AddSpout(name string, s Spout) error {
	return t.add(&component{name: name, spout: s, tasks: 1, subs: map[string]Grouping{}})
}

// AddBolt declares a bolt with the given parallelism.
func (t *Topology) AddBolt(name string, b Bolt, tasks int) error {
	if tasks < 1 {
		return fmt.Errorf("dataflow: bolt %q needs at least one task", name)
	}
	return t.add(&component{name: name, bolt: b, tasks: tasks, subs: map[string]Grouping{}})
}

func (t *Topology) add(c *component) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: topology already running")
	}
	if _, dup := t.components[c.name]; dup {
		return fmt.Errorf("dataflow: component %q declared twice", c.name)
	}
	t.components[c.name] = c
	t.order = append(t.order, c.name)
	return nil
}

// SetMaxPending caps incomplete spout-tuple trees; at the cap spouts pause
// (admission control) until trees complete. Zero leaves the spout unthrottled.
// Must be called before Start.
func (t *Topology) SetMaxPending(n int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: topology already running")
	}
	t.maxPending = n
	return nil
}

// SetInboxWatermarks bounds the topology transport's inboxes with
// credit-based flow control (see transport.Options.InboxHigh). Zero high
// leaves inboxes unbounded. Must be called before Start.
func (t *Topology) SetInboxWatermarks(high, low int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: topology already running")
	}
	t.inboxHigh, t.inboxLow = high, low
	return nil
}

// SetTreeObserver registers a callback observing every completed tuple
// tree's emit-to-ack latency. Must be called before Start.
func (t *Topology) SetTreeObserver(fn func(time.Duration)) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: topology already running")
	}
	t.treeObs = fn
	return nil
}

// SpoutPauses counts transitions into the paused state (tree cap reached).
func (t *Topology) SpoutPauses() int64 { return t.spoutPauses.Load() }

// SpoutPaused is the cumulative wall-clock time spouts spent paused at the
// tree cap.
func (t *Topology) SpoutPaused() time.Duration {
	return time.Duration(t.spoutPausedNanos.Load())
}

// Subscribe routes from's output to the named bolt with the grouping.
func (t *Topology) Subscribe(bolt, from string, g Grouping) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: topology already running")
	}
	b, ok := t.components[bolt]
	if !ok || b.bolt == nil {
		return fmt.Errorf("dataflow: unknown bolt %q", bolt)
	}
	if _, ok := t.components[from]; !ok {
		return fmt.Errorf("dataflow: unknown component %q", from)
	}
	b.subs[from] = g
	return nil
}

// Start launches the topology's executors.
func (t *Topology) Start() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running {
		return errors.New("dataflow: already running")
	}
	// Resolve edges and assign transport nodes.
	var node transport.NodeID
	for _, name := range t.order {
		c := t.components[name]
		c.taskBase = node
		node += transport.NodeID(c.tasks)
	}
	for _, name := range t.order {
		c := t.components[name]
		for from, g := range c.subs {
			up := t.components[from]
			up.downstream = append(up.downstream, edge{grouping: g, to: c})
		}
	}
	t.net = transport.NewNetwork(transport.Options{InboxHigh: t.inboxHigh, InboxLow: t.inboxLow})
	t.acker = newAcker(t)
	t.acker.ep = t.net.Register(node)
	timerEP := t.net.Register(node + 1)
	t.wg.Add(1)
	go func() {
		// Expiry ticks reach the acker through its inbox so it can block on
		// Recv between events.
		defer t.wg.Done()
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-t.stopCh:
				return
			case <-ticker.C:
				timerEP.Send(t.acker.node, tickMsg{})
			}
		}
	}()

	for _, name := range t.order {
		c := t.components[name]
		for task := 0; task < c.tasks; task++ {
			ep := t.net.Register(c.taskBase + transport.NodeID(task))
			if c.spout != nil {
				t.wg.Add(1)
				go t.runSpout(c, ep)
			} else {
				t.wg.Add(1)
				go t.runBolt(c, task, ep)
			}
		}
	}
	t.wg.Add(1)
	go t.acker.run()
	t.running = true
	return nil
}

// Stop shuts the topology down.
func (t *Topology) Stop() {
	t.mu.Lock()
	if !t.running {
		t.mu.Unlock()
		return
	}
	t.running = false
	close(t.stopCh)
	t.net.Close()
	t.mu.Unlock()
	t.wg.Wait()
}

// runSpout pumps the spout: each emission registers a tree with the acker
// and flows to the spout's subscribers.
func (t *Topology) runSpout(c *component, ep *transport.Endpoint) {
	defer t.wg.Done()
	var pausedAt time.Time
	for {
		select {
		case <-t.stopCh:
			return
		default:
		}
		// Drain spout-directed acker notifications (acks/fails).
		for {
			env, ok := ep.TryRecv()
			if !ok {
				break
			}
			switch m := env.Payload.(type) {
			case ackMsg:
				c.spout.Ack(m.payload)
			case failMsg:
				c.spout.Fail(m.payload)
			}
		}
		// Admission control: at the tree cap the source pauses — the loop
		// keeps draining notifications above, which is what lets it resume.
		if t.maxPending > 0 && t.acker.Pending() >= t.maxPending {
			if pausedAt.IsZero() {
				pausedAt = time.Now()
				t.spoutPauses.Add(1)
			}
			select {
			case <-t.stopCh:
				t.spoutPausedNanos.Add(int64(time.Since(pausedAt)))
				return
			case <-time.After(200 * time.Microsecond):
			}
			continue
		}
		if !pausedAt.IsZero() {
			t.spoutPausedNanos.Add(int64(time.Since(pausedAt)))
			pausedAt = time.Time{}
		}
		payload, ok := c.spout.Next()
		if !ok {
			select {
			case <-t.stopCh:
				return
			case <-time.After(200 * time.Microsecond):
			}
			continue
		}
		// Every DELIVERY gets its own tuple ID (as in Storm, where a tuple
		// sent to n tasks contributes n distinct tree entries), so the
		// tree's XOR algebra is exact: register XOR(delivery ids), each
		// consumer XORs out its input and XORs in its own emissions, zero
		// means complete.
		root := t.newID()
		type delivery struct {
			node transport.NodeID
			tup  Tuple
		}
		var deliveries []delivery
		var xor uint64
		for _, e := range c.downstream {
			for _, task := range e.grouping.Select(payload, e.to.tasks) {
				id := t.newID()
				xor ^= uint64(id)
				deliveries = append(deliveries, delivery{
					node: e.to.taskBase + transport.NodeID(task),
					tup:  Tuple{ID: id, Root: root, Payload: payload},
				})
			}
		}
		if len(deliveries) == 0 {
			c.spout.Ack(payload) // nothing subscribes: trivially complete
			continue
		}
		t.acker.register(root, payload, c, xor)
		for _, d := range deliveries {
			ep.Send(d.node, d.tup)
		}
	}
}

// newID returns a fresh tuple ID: a counter pushed through a 64-bit mixer
// (splitmix64's finalizer, a bijection, so IDs stay distinct). The XOR
// algebra needs IDs whose subsets do not cancel: with the bare counter a tree
// of deliveries 2..6 reads zero after the acks of 2 and 4 alone — or of 6
// alone — once the emitter's own ack is in, and the spout was told "complete"
// with leaves still unexecuted, whenever acks arrived in such an order.
func (t *Topology) newID() TupleID {
	z := t.nextID.Add(1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return TupleID(z ^ (z >> 31))
}

// runBolt executes tuples on one task.
func (t *Topology) runBolt(c *component, task int, ep *transport.Endpoint) {
	defer t.wg.Done()
	for {
		env, ok := ep.Recv()
		if !ok {
			return
		}
		tup, ok := env.Payload.(Tuple)
		if !ok {
			continue
		}
		col := &Collector{topo: t, comp: c, ep: ep, input: tup}
		func() {
			defer func() {
				if r := recover(); r != nil {
					col.FailInput()
				}
			}()
			c.bolt.Execute(tup, col)
		}()
		col.finish()
		t.Processed.Add(1)
	}
}

// Collector lets a bolt emit anchored tuples and acknowledge its input.
type Collector struct {
	topo   *Topology
	comp   *component
	ep     *transport.Endpoint
	input  Tuple
	xorAcc uint64
	failed bool
	acked  bool
}

// Emit sends payload downstream, anchored to the input tuple's tree. Each
// delivery carries a fresh tuple ID XORed into the tree.
func (c *Collector) Emit(payload any) {
	for _, e := range c.comp.downstream {
		for _, task := range e.grouping.Select(payload, e.to.tasks) {
			id := c.topo.newID()
			c.xorAcc ^= uint64(id)
			c.ep.Send(e.to.taskBase+transport.NodeID(task), Tuple{ID: id, Root: c.input.Root, Payload: payload})
		}
	}
}

// AckInput marks the input tuple processed (done automatically when Execute
// returns without failing).
func (c *Collector) AckInput() { c.acked = true }

// FailInput marks the whole tree failed; the spout will be notified.
func (c *Collector) FailInput() { c.failed = true }

func (c *Collector) finish() {
	if c.failed {
		c.ep.Send(c.topo.acker.node, treeFail{root: c.input.Root})
		return
	}
	// XOR out the processed input, XOR in the emissions.
	c.ep.Send(c.topo.acker.node, treeAck{root: c.input.Root, xor: uint64(c.input.ID) ^ c.xorAcc})
}

// --- acker ------------------------------------------------------------

type treeAck struct {
	root TupleID
	xor  uint64
}

type treeFail struct {
	root TupleID
}

type ackMsg struct{ payload any }
type failMsg struct{ payload any }
type tickMsg struct{}

type tree struct {
	xor      uint64
	payload  any
	spout    *component
	born     time.Time
	deadline time.Time
}

// acker implements Storm's algorithm: every tree keeps the XOR of (tuple ID
// of every live tuple in the tree, each counted once per delivery). Bolts
// report (input ID XOR emitted IDs); when the XOR reaches zero the tree is
// complete and the spout is acked.
type acker struct {
	topo  *Topology
	node  transport.NodeID
	ep    *transport.Endpoint
	mu    sync.Mutex
	trees map[TupleID]*tree
}

func newAcker(t *Topology) *acker {
	var maxNode transport.NodeID
	for _, c := range t.components {
		if end := c.taskBase + transport.NodeID(c.tasks); end > maxNode {
			maxNode = end
		}
	}
	return &acker{topo: t, node: maxNode, trees: make(map[TupleID]*tree)}
}

func (a *acker) register(root TupleID, payload any, spout *component, initialXor uint64) {
	a.mu.Lock()
	now := time.Now()
	a.trees[root] = &tree{
		xor:      initialXor,
		payload:  payload,
		spout:    spout,
		born:     now,
		deadline: now.Add(a.topo.timeout),
	}
	a.mu.Unlock()
}

func (a *acker) run() {
	defer a.topo.wg.Done()
	for {
		env, ok := a.ep.Recv()
		if !ok {
			return
		}
		switch m := env.Payload.(type) {
		case treeAck:
			a.apply(m)
		case treeFail:
			a.fail(m.root)
		case tickMsg:
			a.expire()
		}
	}
}

func (a *acker) apply(m treeAck) {
	a.mu.Lock()
	tr, ok := a.trees[m.root]
	if !ok {
		a.mu.Unlock()
		return
	}
	tr.xor ^= m.xor
	done := tr.xor == 0
	if done {
		delete(a.trees, m.root)
	}
	a.mu.Unlock()
	if done {
		if obs := a.topo.treeObs; obs != nil {
			obs(time.Since(tr.born))
		}
		a.ep.Send(tr.spout.taskBase, ackMsg{payload: tr.payload})
	}
}

func (a *acker) fail(root TupleID) {
	a.mu.Lock()
	tr, ok := a.trees[root]
	if ok {
		delete(a.trees, root)
	}
	a.mu.Unlock()
	if ok {
		a.ep.Send(tr.spout.taskBase, failMsg{payload: tr.payload})
	}
}

func (a *acker) expire() {
	now := time.Now()
	var expired []TupleID
	a.mu.Lock()
	for root, tr := range a.trees {
		if now.After(tr.deadline) {
			expired = append(expired, root)
		}
	}
	a.mu.Unlock()
	for _, root := range expired {
		a.fail(root)
	}
}

// Pending returns the number of incomplete tuple trees.
func (a *acker) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.trees)
}

// PendingTrees reports the number of incomplete spout-tuple trees.
func (t *Topology) PendingTrees() int { return t.acker.Pending() }
