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
// The unit of transmission is a frame carrying one or more payloads. With
// MaxBatch > 1 each endpoint keeps a per-destination output buffer: Send
// appends to it, and the buffer ships as one multi-payload frame when it
// reaches MaxBatch, when the sender calls Flush, or when the FlushInterval
// ticker fires (the latency backstop). SendNow bypasses the buffer for
// latency-critical traffic (heartbeats) while still draining the buffer
// first so per-destination order is preserved. Receivers drain their whole
// inbox under a single lock with RecvBatch, recycling the caller's previous
// batch slice so the steady state allocates nothing.
//
// Everything the transport counts — MaxBatch, the inbox watermarks, Pending,
// Stats.Payloads and Stats.Delivered — is in messages. A payload is one
// message unless it implements Counted, which is how a sender that builds its
// own batches (the engine's processors) hands a whole batch over as a single
// payload — one lock, one frame — without changing what the credit watermarks
// and the payloads-per-frame ratio mean.
//
// # Credit
//
// With InboxHigh set, a receiver whose inbox reaches the high watermark
// withdraws delivery credit; senders park further data frames locally and
// replay them in order once it drains to InboxLow. Urgent (SendNow) frames
// are never parked, and one that meets a full inbox is shed instead.
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

// frame is the unit of transmission: a batch of payloads from one endpoint
// to another. The wire carries it inside a wireFrame, which adds the
// ledger's sequence number; an in-process frame has none.
type frame struct {
	from, to NodeID
	payloads []any // one or more payloads, in send order
	// msgs is the number of messages inside payloads (see Counted); the wire
	// decoder recounts it.
	msgs int
	// urgent marks SendNow traffic: it bypasses sender-side credit parking,
	// and a watermark-full receiver sheds it rather than growing without
	// bound — urgent payloads are refreshable control signals, not data.
	urgent bool
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
	// waiting for that credit to come back; UrgentShed counts SendNow frames
	// a watermark-full receiver dropped instead of enqueueing, plus urgent
	// frames shed at a full wire priority lane (both are refreshable).
	Stalls     atomic.Int64
	HeldFrames atomic.Int64
	UrgentShed atomic.Int64
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
	// MaxBatch is the per-destination output buffer size in messages: Send
	// buffers payloads and ships a multi-payload frame when the buffer fills
	// (or on Flush / the FlushInterval tick); a payload that would take the
	// buffer past MaxBatch ships what is buffered first, so no frame exceeds
	// it unless a single payload does. Zero or one sends every payload as
	// its own frame immediately.
	MaxBatch int
	// FlushInterval bounds how long a buffered payload may wait before a
	// background tick ships it. Only meaningful with MaxBatch > 1 (default
	// 2ms there).
	FlushInterval time.Duration
	// InboxHigh bounds every endpoint's inbox with credit-based flow
	// control: once an inbox holds this many messages the receiver
	// withdraws delivery credit and senders park further data frames
	// locally (they never block) until the receiver drains back to
	// InboxLow. SendNow frames are never parked, so heartbeats and failure
	// detection are immune to data congestion; a SendNow frame arriving at
	// an inbox already holding InboxHigh messages is instead shed (not
	// enqueued, counted in Stats.UrgentShed), so a starved consumer's
	// control backlog stays bounded too — urgent payloads are refreshed
	// every interval, so dropping the excess loses nothing a later beat
	// does not restate.
	// Zero leaves inboxes unbounded (legacy behavior). The bound is on
	// messages, not frames: a frame already in flight when the watermark
	// trips still lands whole, so momentary overshoot is at most one
	// MaxBatch frame per concurrent sender.
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
	// owns the payload's members: the sender closes the output-buffer dwell
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
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 1
	}
	if opts.MaxBatch > 1 && opts.FlushInterval <= 0 {
		opts.FlushInterval = 2 * time.Millisecond
	}
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
	ep := &Endpoint{id: id, net: n, outbuf: make(map[NodeID]outBuf)}
	ep.cond = sync.NewCond(&ep.mu)
	n.endpoints[id] = ep
	if n.opts.MaxBatch > 1 {
		ep.flushStop = make(chan struct{})
		go ep.flushLoop(n.opts.FlushInterval)
	}
	return ep
}

func (n *Network) endpoint(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[id]
}

// Close shuts down every endpoint gracefully: buffered frames flush and
// receivers may drain their remaining inboxes. The wire (if any) comes down
// last, after the endpoints have flushed through it.
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

// payloadPool recycles the per-frame payload slices of in-process frames,
// whose hand-off to the receiver's inbox leaves the sender no reference. A sync.Pool holds pointers, and boxing a
// slice header into one allocates, so the slices travel in *[]any holders and
// the emptied holders wait in holderPool for the next put: a steady
// get/put cycle allocates nothing.
var (
	payloadPool = sync.Pool{New: func() any { s := make([]any, 0, 8); return &s }}
	holderPool  = sync.Pool{New: func() any { return new([]any) }}
)

func getPayloadSlice() []any {
	h := payloadPool.Get().(*[]any)
	s := (*h)[:0]
	*h = nil
	holderPool.Put(h)
	return s
}

func putPayloadSlice(s []any) {
	if cap(s) == 0 || cap(s) > 1024 {
		return
	}
	clear(s)
	h := holderPool.Get().(*[]any)
	*h = s[:0]
	payloadPool.Put(h)
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
	outbuf    map[NodeID]outBuf

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

	flushStop chan struct{}
}

// outBuf is one destination's output buffer: the payloads waiting for a seal,
// how many messages they hold, and whether any of them is traced.
type outBuf struct {
	payloads []any
	msgs     int
	traced   bool
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Send transmits payload to node to, buffering it when batching is on. It
// never blocks. Sends from a closed or crashed endpoint are suppressed.
func (e *Endpoint) Send(to NodeID, payload any) {
	maxBatch := e.net.opts.MaxBatch
	msgs := payloadLen(payload)
	// One atomic load decides whether the trace machinery is consulted at
	// all; only then is the payload's carrier interface inspected.
	traced := false
	if e.net.opts.Spans.Enabled() {
		if c, ok := payload.(trace.Carrier); ok && c.TraceCtx().Traced() {
			traced = true
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	var frames [2]frame
	n := 0
	ob := e.outbuf[to]
	if len(ob.payloads) > 0 && ob.msgs+msgs > maxBatch {
		// The payload would take the buffer past MaxBatch: what is buffered
		// ships as its own frame first.
		frames[n] = e.seal(to, ob)
		n++
		ob = outBuf{}
	}
	if ob.payloads == nil {
		ob.payloads = getPayloadSlice()
	}
	ob.payloads = append(ob.payloads, payload)
	ob.msgs += msgs
	ob.traced = ob.traced || traced
	if ob.msgs >= maxBatch {
		delete(e.outbuf, to)
		frames[n] = e.seal(to, ob)
		n++
	} else {
		e.outbuf[to] = ob
	}
	e.mu.Unlock()
	for _, f := range frames[:n] {
		e.transmitData(f)
	}
}

// SendNow transmits payload immediately, bypassing the batch buffer (after
// draining any buffered payloads for the same destination, so per-pair order
// is preserved). Heartbeats and other latency-critical control traffic use
// it so batching cannot delay them.
func (e *Endpoint) SendNow(to NodeID, payload any) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	var pre frame
	hasPre := false
	if ob := e.outbuf[to]; len(ob.payloads) > 0 {
		delete(e.outbuf, to)
		pre = e.seal(to, ob)
		hasPre = true
	}
	e.mu.Unlock()
	f := e.seal(to, outBuf{payloads: append(getPayloadSlice(), payload), msgs: payloadLen(payload)})
	f.urgent = true
	// SendNow traffic skips the credit check (see transmitDataNow). The
	// drained buffer rides the same bypass: holding it while the urgent
	// frame jumps ahead would reorder the pair.
	if hasPre {
		e.transmitDataNow(pre)
	}
	e.transmitDataNow(f)
}

// Flush seals every non-empty output buffer into a frame and transmits it.
// Senders call it at protocol boundaries (end of a dispatch window, frontier
// notifications); the FlushInterval ticker is only the latency backstop.
func (e *Endpoint) Flush() {
	var buf [8]frame // a flush rarely has more destinations; more spill to the heap
	frames := buf[:0]
	e.mu.Lock()
	if !e.closed {
		frames = e.sealOutbufLocked(frames)
	}
	e.mu.Unlock()
	for _, f := range frames {
		e.transmitData(f)
	}
}

// seal builds the frame for to from a sealed output buffer.
func (e *Endpoint) seal(to NodeID, ob outBuf) frame {
	return frame{from: e.id, to: to, payloads: ob.payloads, msgs: ob.msgs, traced: ob.traced}
}

// sealOutbufLocked seals every buffered destination, appending the frames to
// frames. Caller holds e.mu.
func (e *Endpoint) sealOutbufLocked(frames []frame) []frame {
	for to, ob := range e.outbuf {
		delete(e.outbuf, to)
		frames = append(frames, e.seal(to, ob))
	}
	return frames
}

// transmitData counts and transmits a data frame, and recycles its payload
// slice unless the frame was parked awaiting credit.
func (e *Endpoint) transmitData(f frame) {
	e.net.Stats.Sent.Add(1)
	e.net.Stats.Payloads.Add(int64(f.msgs))
	if e.holdOrTransmit(f) {
		return // parked; the credit grant transmits (and recycles) it later
	}
	e.net.recycle(f)
}

// recycle returns a transmitted frame's payload slice to the pool. An
// in-process transmit is synchronous — the receiver's inbox took the payload
// references — so the slice is free. A wire makes transmit asynchronous: the
// frame sits in a peer queue and the wire ledger, still referencing the
// slice, so wire frames are left to the garbage collector instead.
func (n *Network) recycle(f frame) {
	if n.wire == nil {
		putPayloadSlice(f.payloads)
	}
}

// transmitDataNow is transmitData without the credit check: SendNow traffic
// (heartbeats, failure detection) must reach a congested receiver — one
// control envelope past the watermark is harmless, whereas a parked
// heartbeat is a false crash suspicion.
func (e *Endpoint) transmitDataNow(f frame) {
	e.net.Stats.Sent.Add(1)
	e.net.Stats.Payloads.Add(int64(f.msgs))
	e.transmit(f)
	e.net.recycle(f)
}

// holdOrTransmit implements the sender half of credit-based flow control:
// a data frame whose destination has withdrawn credit — or that would
// overtake frames already parked for it — is queued locally instead of
// delivered, and replayed in order when the receiver grants credit again.
// Reports whether the frame was parked.
func (e *Endpoint) holdOrTransmit(f frame) bool {
	if e.net.opts.InboxHigh <= 0 {
		e.transmit(f)
		return false
	}
	dst := e.peer(f.to)
	if dst == nil {
		// Unregistered destination: transmit handles the wire detour (remote
		// peers are outside the credit domain — their flow control is the
		// bounded peer queue plus the wire ledger) or drops the frame.
		e.transmit(f)
		return false
	}
	e.mu.Lock()
	if !e.closed && (dst.stalled.Load() || len(e.held[f.to]) > 0 || e.draining[f.to]) {
		if e.held == nil {
			e.held = make(map[NodeID][]frame)
		}
		e.held[f.to] = append(e.held[f.to], f)
		e.net.Stats.HeldFrames.Add(1)
		e.mu.Unlock()
		// The receiver may have granted credit between our stall check and
		// the append; re-check so a frame can never be parked forever.
		if !dst.stalled.Load() {
			e.releaseHeld(f.to)
		}
		return true
	}
	e.mu.Unlock()
	e.net.dispatch(dst, f)
	return false
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
			e.transmit(f)
			e.net.recycle(f)
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

// transmit hands a frame to its destination. The peer cache keeps the global
// Network mutex off this path. A destination with no local endpoint routes
// over the wire when one is attached (remote deployments); without a wire it
// is dropped.
func (e *Endpoint) transmit(f frame) {
	dst := e.peer(f.to)
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

// peer resolves the destination endpoint through the per-endpoint cache.
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
	// An urgent frame meeting a watermark-full inbox is shed: its sender
	// refreshes it every interval, and appending would grow a starved
	// consumer's backlog without bound (urgent traffic is exempt from
	// sender-side parking).
	high := e.net.opts.InboxHigh
	shed := f.urgent && high > 0 && e.inboxMsgs >= high
	if !shed {
		// Frame transit (seal -> inbox, credit parking included) ends here;
		// the stamp rides the envelope and the receiver closes the stage.
		at := int64(0)
		if sp := e.net.opts.Spans; f.traced && sp.Enabled() {
			at = sp.Now()
		}
		for _, pl := range f.payloads {
			e.inbox = append(e.inbox, Envelope{From: f.from, Payload: pl, At: at})
		}
		e.inboxMsgs += f.msgs
		e.cond.Broadcast()
	}
	stalledNow := false
	if high > 0 && e.inboxMsgs >= high && !e.stalled.Load() {
		e.stalled.Store(true)
		stalledNow = true
	}
	e.mu.Unlock()
	if stalledNow {
		e.net.Stats.Stalls.Add(1)
	}
	if shed {
		e.net.Stats.UrgentShed.Add(1)
	} else {
		e.net.Stats.Delivered.Add(int64(f.msgs))
	}
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

// Close shuts the endpoint down gracefully; buffered outgoing frames are
// flushed first and blocked Recv calls return false after the inbox drains.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	frames := e.sealOutbufLocked(nil)
	e.closed = true
	if e.flushStop != nil {
		close(e.flushStop)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, f := range frames {
		e.transmitData(f)
	}
	// Frames other endpoints parked for us would otherwise wait for a drain
	// that may never happen; release them now — deliver drops traffic to a
	// closed endpoint, so this empties sender queues without side effects.
	if e.net.opts.InboxHigh > 0 {
		e.stalled.Store(false)
		e.net.grantCredits(e.id)
	}
}

// Crash tears the endpoint down with true crash semantics: queued incoming
// messages and buffered and parked outgoing frames are all discarded, as a
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
	e.outbuf = make(map[NodeID]outBuf)
	e.held = nil // our own parked frames die with us
	if !e.closed {
		e.closed = true
		if e.flushStop != nil {
			close(e.flushStop)
		}
	}
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

// flushLoop is the batching latency backstop: it ships buffers that no
// explicit Flush picked up within FlushInterval.
func (e *Endpoint) flushLoop(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.flushStop:
			return
		case <-tick.C:
		}
		e.mu.Lock()
		var frames []frame
		if !e.closed {
			frames = e.sealOutbufLocked(nil)
		}
		e.mu.Unlock()
		for _, f := range frames {
			e.transmitData(f)
		}
	}
}

// Buffered reports how many messages are waiting in output buffers
// (diagnostics and tests).
func (e *Endpoint) Buffered() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, ob := range e.outbuf {
		n += ob.msgs
	}
	return n
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
