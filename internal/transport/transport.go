// Package transport is Tornado's transportation layer (Section 5.1): it
// moves messages between the nodes of a topology (ingesters, processors,
// master) and ensures they are delivered without error.
//
// The package provides an in-process Network of Endpoints. An in-process
// Endpoint is a credit-controlled, crash-only queue: a frame handed to a
// local destination lands in its inbox by function call, in send order, and
// nothing between two endpoints of one process can lose or duplicate it. The
// only loss an in-process frame meets is a crash, and a crash loses exactly
// what a process crash would (see Crash); recovering it is the engine's job
// (restart from the last terminated-iteration checkpoint).
//
// At-least-once delivery (Section 5.3: "When a sent message is not
// acknowledged in certain time, it will be resent to ensure at-least-once
// message passing") lives on the wire (wire.go), the one layer that can lose
// a frame: the wire host numbers each (from, to) pair's frames, receivers
// dedup and acknowledge them, and a ledger resends what stays unacknowledged
// past ResendAfter. Exactly-once is deliberately NOT promised across a crash
// — the engine layer above tolerates duplicates through the causality rule
// (stale updates are discarded).
//
// # Batching
//
// The unit of transmission is a frame carrying one payload: Send hands the
// payload on at once, and nothing waits in the transport for a later flush.
// Batching is the sender's job. A sender that wants fewer, larger frames
// builds its own batch and sends it as one payload — the engine's processors
// cut each receive window into frames of at most its MaxBatch messages, and
// wirenode ships a worker's relaxations per owner.
// Receivers drain their whole inbox under a single lock with RecvBatch,
// recycling the caller's previous batch slice so the steady state allocates
// nothing.
//
// Everything the transport counts — the inbox watermarks, Pending,
// Stats.Payloads and Stats.Delivered — is in messages. A payload is one
// message unless it implements Counted, which is how a sender-built batch
// travels as a single payload — one lock, one frame — without changing what
// the credit watermarks and the payloads-per-frame ratio mean.
//
// # Credit
//
// With InboxHigh set, a receiver whose inbox reaches the high watermark
// withdraws delivery credit; senders park further data frames locally and
// replay them in order once it drains to InboxLow.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tornado/internal/obs/trace"
)

// NodeID identifies an endpoint of the network.
type NodeID int32

// Envelope is a delivered message as seen by the receiver.
type Envelope struct {
	From    NodeID
	Payload any
	// At is the tracer's clock at delivery into the inbox, set only on the
	// payloads of a traced frame (zero otherwise): the receiver closes the
	// frame-transit stage of the payload's traced members at it.
	At int64
}

// Counted is implemented by a payload that stands for several messages (a
// sender-built batch); PayloadLen is how many. Every other payload counts as
// one.
type Counted interface {
	PayloadLen() int
}

func payloadLen(p any) int {
	if c, ok := p.(Counted); ok {
		return c.PayloadLen()
	}
	return 1
}

// frame is the unit of transmission: one payload from one endpoint to
// another. The wire carries it inside a wireFrame, which adds the ledger's
// sequence number; an in-process frame has none.
type frame struct {
	from, to NodeID
	payload  any // nil only on a wire ack
	// msgs is the number of messages inside payload (see Counted); the wire
	// decoder recounts it.
	msgs int
	// traced marks a frame carrying at least one causally-traced payload: its
	// delivery is stamped (Envelope.At), and a wire resend of it records an
	// escalation marker against the trace.
	traced bool
}

// Stats are the network's delivery counters. The engine owns one Stats and
// threads it through every Network it builds, so counts survive the network
// teardown/rebuild a crash recovery performs.
type Stats struct {
	// Sent counts every data frame accepted for transmission (including wire
	// resends); Payloads counts the messages inside first-transmission frames
	// (so Payloads/(Sent−Resent) is the average batch size); Delivered counts
	// messages handed to live receivers (after the wire's dedup).
	Sent      atomic.Int64
	Payloads  atomic.Int64
	Delivered atomic.Int64
	// Resent counts wire retransmissions after the ack timeout; AckFrames
	// counts the acknowledgement frames wire receivers send. Both stay zero
	// on an in-process network.
	Resent    atomic.Int64
	AckFrames atomic.Int64
	// Stalls counts inbox high-watermark crossings (a receiver withdrew
	// delivery credit); HeldFrames counts data frames senders parked while
	// waiting for that credit to come back.
	Stalls     atomic.Int64
	HeldFrames atomic.Int64
	// Wire counters, all zero unless Options.Wire attaches a socket
	// substrate. WireTxFrames/WireRxFrames count frames serialized onto and
	// decoded off the wire; WireTxBytes/WireRxBytes count the encoded bytes
	// (length prefix included). WireReconnects counts supervised re-dials
	// after an established peer connection died. WireChecksumFailures counts
	// frames whose CRC did not match (each one drops its connection);
	// WireTornFrames counts framing damage short of a CRC mismatch —
	// truncated bodies, corrupt length prefixes, malformed payload tables.
	// WireShed counts frames dropped before the socket (full peer queue,
	// unresolvable destination) and inbound frames for unknown endpoints;
	// WireEncodeErrors counts payloads the codec refused (an unregistered
	// type — a programming error surfaced as a counter, not a panic).
	WireTxFrames         atomic.Int64
	WireRxFrames         atomic.Int64
	WireTxBytes          atomic.Int64
	WireRxBytes          atomic.Int64
	WireReconnects       atomic.Int64
	WireChecksumFailures atomic.Int64
	WireTornFrames       atomic.Int64
	WireShed             atomic.Int64
	WireEncodeErrors     atomic.Int64
}

// Options configure a Network.
type Options struct {
	// ResendAfter is the wire ledger's timeout: how long a frame may stay
	// unacknowledged after the wire writer wrote (or shed) it before it is
	// first retransmitted. Later retransmissions of the same frame back off
	// exponentially (doubling, with up to 25% jitter) up to 64 × ResendAfter.
	// Default 5ms with a Wire; an in-process network ignores it, as it has
	// nothing to resend.
	ResendAfter time.Duration
	// MaxBatch is ignored: every payload travels as a frame of its own.
	//
	// Deprecated: senders build their own batches (see Counted).
	MaxBatch int
	// FlushInterval is ignored: nothing waits in the transport for a flush.
	//
	// Deprecated: there is no flush ticker.
	FlushInterval time.Duration
	// InboxHigh bounds every endpoint's inbox with credit-based flow
	// control: once an inbox holds this many messages the receiver
	// withdraws delivery credit and senders park further data frames
	// locally (they never block) until the receiver drains back to
	// InboxLow. Zero leaves inboxes unbounded (legacy behavior). The bound
	// is on messages, not frames: a frame already in flight when the
	// watermark trips still lands whole, so momentary overshoot is at most
	// one sender-built batch per concurrent sender.
	InboxHigh int
	// InboxLow is the drain watermark that restores credit to a stalled
	// inbox (default InboxHigh/2). The hysteresis gap keeps senders from
	// thrashing between parked and draining one envelope at a time.
	InboxLow int
	// DropSeed seeds the wire's jitter RNGs (resend and redial backoff).
	DropSeed int64
	// Stats, when non-nil, receives the network's counters; otherwise the
	// network allocates its own.
	Stats *Stats
	// Spans, when non-nil, makes the transport trace-aware: frames carrying
	// a traced payload (one implementing trace.Carrier) stamp their delivery
	// on the Envelope, and a wire resend of one records an escalation marker
	// against the trace. The stage spans themselves are recorded by whoever
	// owns the payload's members: the sender closes its own batch's dwell
	// (batch) before Send, the receiver the frame transit (frame, credit
	// parking included) at Envelope.At.
	Spans *trace.Tracer
	// Wire, when non-nil, attaches a socket substrate (see WireConfig): in
	// ForceLoop mode every frame between local endpoints detours through a
	// real connection; otherwise frames addressed to NodeIDs with no local
	// endpoint are resolved to peer addresses and shipped remotely. The wire
	// sheds frames freely (reconnects, full queues, partitions) and always
	// runs its ledger to recover them (see ResendAfter).
	Wire *WireConfig
}

// Network connects a set of endpoints. Create one per topology (or per loop
// incarnation: a crash recovery tears the old network down and builds a
// fresh one over the same Stats).
type Network struct {
	mu        sync.Mutex
	endpoints map[NodeID]*Endpoint
	opts      Options
	closed    bool

	// Stats holds the delivery counters (shared with the creator when
	// Options.Stats was set).
	Stats *Stats

	// wire is the socket substrate, nil for pure in-process networks.
	wire *wireHost
}

// NewNetwork returns an empty network.
func NewNetwork(opts Options) *Network {
	if opts.InboxHigh > 0 && (opts.InboxLow <= 0 || opts.InboxLow >= opts.InboxHigh) {
		opts.InboxLow = opts.InboxHigh / 2
	}
	st := opts.Stats
	if st == nil {
		st = &Stats{}
	}
	n := &Network{
		endpoints: make(map[NodeID]*Endpoint),
		opts:      opts,
		Stats:     st,
	}
	if opts.Wire != nil {
		if n.opts.ResendAfter <= 0 {
			n.opts.ResendAfter = 5 * time.Millisecond
		}
		n.wire = newWireHost(n, *opts.Wire)
	}
	return n
}

// WireAddr returns the bound wire listener address, or "" when the network
// has no wire attached.
func (n *Network) WireAddr() string {
	if n.wire == nil {
		return ""
	}
	return n.wire.Addr()
}

// Register creates the endpoint for id. Registering the same id twice panics
// (topology wiring bugs should fail loudly), which is also what makes the
// per-endpoint peer cache sound: a NodeID can never be rebound to a
// different Endpoint within one Network.
func (n *Network) Register(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[id]; ok {
		panic(fmt.Sprintf("transport: node %d registered twice", id))
	}
	ep := &Endpoint{id: id, net: n}
	ep.cond = sync.NewCond(&ep.mu)
	n.endpoints[id] = ep
	return ep
}

func (n *Network) endpoint(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[id]
}

// Close shuts down every endpoint gracefully: receivers may drain their
// remaining inboxes. The wire (if any) comes down last.
func (n *Network) Close() {
	for _, ep := range n.snapshotEndpoints() {
		ep.Close()
	}
	if n.wire != nil {
		n.wire.close()
	}
}

// Abort crashes every endpoint: all in-flight and queued traffic is
// discarded and receivers unblock immediately. The engine uses it to tear a
// failed loop incarnation down before restarting from a checkpoint.
func (n *Network) Abort() {
	for _, ep := range n.snapshotEndpoints() {
		ep.Crash()
	}
	if n.wire != nil {
		n.wire.close()
	}
}

func (n *Network) snapshotEndpoints() []*Endpoint {
	n.mu.Lock()
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	return eps
}

// list snapshots the endpoint set without closing the network.
func (n *Network) list() []*Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	return eps
}

// Endpoint is one node's attachment to the network. Send and Recv are safe
// for concurrent use.
type Endpoint struct {
	id  NodeID
	net *Network

	// peers caches destination endpoints so the steady-state transmit path
	// never takes the global Network mutex. Sound because NodeIDs are never
	// rebound (Register panics on reuse).
	peers sync.Map // NodeID → *Endpoint

	mu    sync.Mutex
	cond  *sync.Cond
	inbox []Envelope
	// inboxMsgs is the number of messages inside inbox (see Counted): what the
	// watermarks and Pending count.
	inboxMsgs int
	closed    bool
	crashed   bool

	// stalled is the receiver-side credit flag: set (under mu, in deliver)
	// once the inbox reaches the high watermark, cleared once a drain takes
	// it to the low watermark. Atomic so senders can consult it without the
	// receiver's lock.
	stalled atomic.Bool
	// held and draining are the sender side of flow control: frames parked
	// per destination while its credit is withdrawn, and the flag marking an
	// in-progress credit-grant replay (new frames park behind it to keep
	// per-pair order). Both guarded by mu, allocated lazily.
	held     map[NodeID][]frame
	draining map[NodeID]bool
	// replayed, when set (tests only), runs after each frame a held-frame
	// replay transmits, with no lock held: between two frames of the replay.
	replayed func()
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Send transmits payload to node to as a frame of its own. It never blocks:
// a destination that has withdrawn credit gets the frame parked, in order,
// until it drains. Sends from a closed or crashed endpoint are suppressed.
func (e *Endpoint) Send(to NodeID, payload any) { e.send(e.frame(to, payload)) }

// Flush does nothing: Send has already transmitted every payload.
//
// Deprecated: the transport keeps no output buffer to flush.
func (e *Endpoint) Flush() {}

// frame wraps one payload for to. One atomic load decides whether the trace
// machinery is consulted at all; only then is the payload's carrier
// interface inspected.
func (e *Endpoint) frame(to NodeID, payload any) frame {
	f := frame{from: e.id, to: to, payload: payload, msgs: payloadLen(payload)}
	if e.net.opts.Spans.Enabled() {
		if c, ok := payload.(trace.Carrier); ok && c.TraceCtx().Traced() {
			f.traced = true
		}
	}
	return f
}

// send counts and transmits a data frame. It implements the sender half of
// credit-based flow control: a data frame whose destination has withdrawn
// credit — or that would overtake frames already parked for it — is queued
// locally instead of delivered, and replayed in order when the receiver
// grants credit again. A destination with no local endpoint is outside the
// credit domain: its flow control is the wire's bounded peer queue plus the
// ledger.
func (e *Endpoint) send(f frame) {
	dst := e.peer(f.to)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	park := dst != nil && e.net.opts.InboxHigh > 0 &&
		(dst.stalled.Load() || len(e.held[f.to]) > 0 || e.draining[f.to])
	if park {
		if e.held == nil {
			e.held = make(map[NodeID][]frame)
		}
		e.held[f.to] = append(e.held[f.to], f)
	}
	e.mu.Unlock()
	e.net.Stats.Sent.Add(1)
	e.net.Stats.Payloads.Add(int64(f.msgs))
	if !park {
		e.transmit(dst, f)
		return
	}
	e.net.Stats.HeldFrames.Add(1)
	// The receiver may have granted credit between our stall check and the
	// append; re-check so a frame can never be parked forever.
	if !dst.stalled.Load() {
		e.releaseHeld(f.to)
	}
}

// grantCredits replays frames parked for destination to across every
// endpoint. The receiver calls it (with no locks held) after draining below
// its low watermark; crash and close transitions call it too, so parked
// frames can never outlive their destination's stall.
func (n *Network) grantCredits(to NodeID) {
	for _, ep := range n.list() {
		ep.releaseHeld(to)
	}
}

// releaseHeld transmits this endpoint's parked frames for destination to,
// oldest first. The draining flag keeps per-pair order: concurrent sends
// park behind the replay and the loop picks them up, and a second grant
// returns immediately rather than interleaving. A parked frame has not
// reached the wire, so no ledger holds it: the replay is its only sender.
func (e *Endpoint) releaseHeld(to NodeID) {
	e.mu.Lock()
	if len(e.held[to]) == 0 || e.draining[to] {
		e.mu.Unlock()
		return
	}
	if e.draining == nil {
		e.draining = make(map[NodeID]bool)
	}
	e.draining[to] = true
	for len(e.held[to]) > 0 {
		frames := e.held[to]
		delete(e.held, to)
		e.mu.Unlock()
		dst := e.peer(to)
		stopped := -1
		for i, f := range frames {
			if e.Crashed() {
				break // a crash between two frames: the rest dies with it
			}
			if dst != nil && dst.stalled.Load() {
				stopped = i
				break
			}
			e.transmit(dst, f)
			if e.replayed != nil {
				e.replayed()
			}
		}
		e.mu.Lock()
		if e.crashed {
			// Crash ran while the lock was dropped for the replay: it
			// discarded the parked frames (e.held is nil), and the frames
			// this replay had not sent died with them.
			break
		}
		if stopped >= 0 {
			// The destination stalled again mid-replay: park the remainder
			// ahead of anything that arrived while we were draining.
			rest := frames[stopped:]
			merged := make([]frame, 0, len(rest)+len(e.held[to]))
			merged = append(merged, rest...)
			merged = append(merged, e.held[to]...)
			e.held[to] = merged
			// A grant that landed after the stall check found draining set
			// and returned: unless the destination is still stalled, the
			// replay is ours to finish, or the frames wait for a stall that
			// may never come again.
			if dst.stalled.Load() {
				break
			}
		}
	}
	delete(e.draining, to)
	e.mu.Unlock()
}

// transmit hands a frame to its destination, dst (the local endpoint of
// f.to, or nil). A destination with no local endpoint routes over the wire
// when one is attached (remote deployments); without a wire it is dropped.
func (e *Endpoint) transmit(dst *Endpoint, f frame) {
	if dst == nil {
		if w := e.net.wire; w != nil && !w.cfg.ForceLoop {
			w.send(f)
		}
		return
	}
	e.net.dispatch(dst, f)
}

// dispatch is the final hop of a locally-addressed frame: the destination
// endpoint's deliver, or — in ForceLoop wire mode — a detour through the
// host's own listener so the frame pays the full serialize/socket/decode
// path first.
func (n *Network) dispatch(dst *Endpoint, f frame) {
	if w := n.wire; w != nil && w.cfg.ForceLoop {
		w.send(f)
		return
	}
	dst.deliver(f)
}

// peer resolves the destination endpoint through the per-endpoint cache,
// which keeps the global Network mutex off the transmit path.
func (e *Endpoint) peer(to NodeID) *Endpoint {
	if v, ok := e.peers.Load(to); ok {
		return v.(*Endpoint)
	}
	dst := e.net.endpoint(to)
	if dst != nil {
		e.peers.Store(to, dst)
	}
	return dst
}

// deliver lands an incoming frame in the inbox: called by a local sender, or
// by the wire's reader once its ledger has deduplicated the frame.
func (e *Endpoint) deliver(f frame) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	// Frame transit (send -> inbox, credit parking included) ends here; the
	// stamp rides the envelope and the receiver closes the stage.
	at := int64(0)
	if sp := e.net.opts.Spans; f.traced && sp.Enabled() {
		at = sp.Now()
	}
	e.inbox = append(e.inbox, Envelope{From: f.from, Payload: f.payload, At: at})
	e.inboxMsgs += f.msgs
	e.cond.Broadcast()
	stalledNow := false
	if high := e.net.opts.InboxHigh; high > 0 && e.inboxMsgs >= high && !e.stalled.Load() {
		e.stalled.Store(true)
		stalledNow = true
	}
	e.mu.Unlock()
	if stalledNow {
		e.net.Stats.Stalls.Add(1)
	}
	e.net.Stats.Delivered.Add(int64(f.msgs))
}

// drainedLocked re-evaluates the stall flag after the inbox shrank; caller
// holds mu. When it reports true the caller must, after releasing every
// lock, call e.net.grantCredits(e.id) so parked senders resume.
func (e *Endpoint) drainedLocked() bool {
	if e.stalled.Load() && e.inboxMsgs <= e.net.opts.InboxLow {
		e.stalled.Store(false)
		return true
	}
	return false
}

// Recv blocks until a message arrives or the endpoint closes. The second
// result is false once the endpoint is closed and drained (or crashed).
func (e *Endpoint) Recv() (Envelope, bool) { return e.recvOne(true) }

// TryRecv returns the next message without blocking.
func (e *Endpoint) TryRecv() (Envelope, bool) { return e.recvOne(false) }

func (e *Endpoint) recvOne(block bool) (Envelope, bool) {
	e.mu.Lock()
	for block && len(e.inbox) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.inbox) == 0 {
		e.mu.Unlock()
		return Envelope{}, false
	}
	env := e.inbox[0]
	e.inbox = e.inbox[1:]
	e.inboxMsgs -= payloadLen(env.Payload)
	grant := e.drainedLocked()
	e.mu.Unlock()
	if grant {
		e.net.grantCredits(e.id)
	}
	return env, true
}

// RecvBatch blocks until at least one message arrives, then drains the whole
// inbox under a single lock acquisition. The caller passes the slice the
// previous RecvBatch returned (or nil); its capacity becomes the endpoint's
// next inbox, so a steady-state receive loop ping-pongs two slices and
// allocates nothing. The second result is false once the endpoint is closed
// and drained (or crashed).
func (e *Endpoint) RecvBatch(reuse []Envelope) ([]Envelope, bool) {
	return e.recvBatch(reuse, true)
}

// PollBatch is RecvBatch for a receiver that has work of its own queued: an
// empty inbox returns an empty batch at once instead of blocking.
func (e *Endpoint) PollBatch(reuse []Envelope) ([]Envelope, bool) {
	return e.recvBatch(reuse, false)
}

func (e *Endpoint) recvBatch(reuse []Envelope, block bool) ([]Envelope, bool) {
	for i := range reuse {
		reuse[i] = Envelope{} // drop payload references before reuse
	}
	e.mu.Lock()
	for block && len(e.inbox) == 0 && !e.closed {
		e.cond.Wait()
	}
	if len(e.inbox) == 0 {
		closed := e.closed
		e.mu.Unlock()
		return reuse[:0], !closed
	}
	batch := e.inbox
	e.inbox, e.inboxMsgs = reuse[:0], 0
	grant := e.drainedLocked()
	e.mu.Unlock()
	if grant {
		e.net.grantCredits(e.id)
	}
	return batch, true
}

// Pending returns the number of queued incoming messages.
func (e *Endpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inboxMsgs
}

// Close shuts the endpoint down gracefully: blocked Recv calls return false
// after the inbox drains.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	// Frames other endpoints parked for us would otherwise wait for a drain
	// that may never happen; release them now — deliver drops traffic to a
	// closed endpoint, so this empties sender queues without side effects.
	if e.net.opts.InboxHigh > 0 {
		e.stalled.Store(false)
		e.net.grantCredits(e.id)
	}
}

// Crash tears the endpoint down with true crash semantics: queued incoming
// messages and parked outgoing frames are all discarded, as a
// process crash would lose them, and the wire ledger forgets the endpoint's
// unacknowledged frames. Blocked Recv calls return false immediately
// (nothing is drained). Idempotent.
func (e *Endpoint) Crash() {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return
	}
	e.crashed = true
	e.inbox, e.inboxMsgs = nil, 0
	e.held = nil // our own parked frames die with us
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	if w := e.net.wire; w != nil {
		w.forget(e.id)
	}
	// A crashed inbox will never drain: clear the stall and let senders
	// replay their parked frames into deliver's closed-endpoint drop, so
	// their held queues cannot leak (or park new traffic forever).
	if e.net.opts.InboxHigh > 0 {
		e.stalled.Store(false)
		e.net.grantCredits(e.id)
	}
}

// Crashed reports whether the endpoint was torn down by Crash.
func (e *Endpoint) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Stalled reports whether this endpoint's inbox has withdrawn delivery
// credit (at or above the high watermark, not yet drained to the low one).
func (e *Endpoint) Stalled() bool { return e.stalled.Load() }

// HeldFrames reports how many outgoing data frames this endpoint has parked
// waiting for destination credit.
func (e *Endpoint) HeldFrames() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, fs := range e.held {
		n += len(fs)
	}
	return n
}

// QueueDepths is the network-wide flow-control snapshot: the deepest and
// total inbox depth, how many endpoints are currently withholding credit,
// and how many frames senders have parked. The /statusz flow section and
// the watermark tests read it.
func (n *Network) QueueDepths() (maxDepth, total, stalled, held int) {
	for _, ep := range n.list() {
		d := ep.Pending()
		if d > maxDepth {
			maxDepth = d
		}
		total += d
		if ep.Stalled() {
			stalled++
		}
		held += ep.HeldFrames()
	}
	return maxDepth, total, stalled, held
}
