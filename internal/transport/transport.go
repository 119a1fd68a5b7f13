// Package transport is Tornado's transportation layer (Section 5.1): it
// moves messages between the nodes of a topology (ingesters, processors,
// master) and ensures they are delivered without error.
//
// The package provides an in-process Network of Endpoints. Delivery is
// at-least-once: every frame carries a sequence number, receivers
// acknowledge, senders retransmit unacknowledged frames after a timeout,
// and receivers drop duplicates (Section 5.3: "When a sent message is not
// acknowledged in certain time, it will be resent to ensure at-least-once
// message passing"). Exactly-once is deliberately NOT promised — the engine
// layer above tolerates duplicates through the causality rule (stale updates
// are discarded).
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
// Acks are cumulative: an ack frame carries both the acked sequence and the
// receiver's contiguous watermark (every sequence below it has been
// delivered). Senders compact their unacked map against the watermark, and
// receivers keep dedup state only for out-of-order sequences above it, so
// neither side's bookkeeping grows with the life of the connection. In
// batched mode receivers additionally defer acks for in-order frames
// (sending one every few frames plus a ticker sweep), which suppresses most
// ack traffic; duplicates and out-of-order frames are always acked
// immediately. Acks exist only for the resend ledger: with ResendAfter 0 a
// receiver sends none, immediate or deferred.
//
// Retransmission backs off exponentially with jitter so a dead peer is not
// hammered at a fixed rate, and an optional MaxResends cap moves frames that
// can never be delivered to a dead-letter counter instead of retrying
// forever.
//
// Fault injection hooks reproduce the paper's failure experiments (Figures
// 8c and 8d) deterministically, at two severities:
//
//   - Kill/Recover pause a node: frames to it vanish but senders keep them
//     buffered, so recovery replays everything (a network partition).
//   - Crash tears a node down: its inbox, dedup state and send buffers are
//     discarded and its sequence state is gone — exactly what a process
//     crash loses. Recovery of crashed state is the engine layer's job
//     (restart from the last terminated-iteration checkpoint).
package transport

import (
	"fmt"
	"math/rand"
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

// frame is the wire representation: a batch of payloads (data) or an ack.
type frame struct {
	from, to NodeID
	seq      uint64
	ack      bool
	// ackUpTo is the receiver's contiguous watermark on ack frames: every
	// data sequence below it has been delivered, so the sender may discard
	// all of them even if their dedicated acks were lost.
	ackUpTo  uint64
	payloads []any // data frames: one or more payloads, in send order
	// msgs is the number of messages inside payloads (see Counted); the wire
	// decoder recounts it.
	msgs int
	// urgent marks SendNow traffic: it bypasses sender-side credit parking,
	// and a watermark-full receiver sheds (acks without enqueueing) it
	// rather than growing without bound — urgent payloads are refreshable
	// control signals, not data.
	urgent bool
	// traced marks a frame carrying at least one causally-traced payload: its
	// delivery is stamped (Envelope.At), and a resend or dead letter records
	// an escalation marker against the trace.
	traced bool
}

// Stats are the network's delivery counters. The engine owns one Stats and
// threads it through every Network it builds, so counts survive the network
// teardown/rebuild a crash recovery performs.
type Stats struct {
	// Sent counts every data frame accepted for transmission (including
	// resends and duplicates); Payloads counts the messages inside
	// first-transmission frames (so Payloads/(Sent−Resent) is the average
	// batch size); Delivered counts messages handed to live receivers after
	// dedup.
	Sent      atomic.Int64
	Payloads  atomic.Int64
	Delivered atomic.Int64
	// Resent counts retransmissions after the ack timeout; AckFrames counts
	// acknowledgement frames sent by receivers; Dropped and Duplicated count
	// fault-injected in-flight losses and duplications.
	Resent     atomic.Int64
	AckFrames  atomic.Int64
	Dropped    atomic.Int64
	Duplicated atomic.Int64
	// DeadLetters counts frames abandoned after MaxResends retransmission
	// attempts — typically traffic addressed to a crashed endpoint.
	DeadLetters atomic.Int64
	// Stalls counts inbox high-watermark crossings (a receiver withdrew
	// delivery credit); HeldFrames counts data frames senders parked while
	// waiting for that credit to come back; UrgentShed counts SendNow frames
	// a watermark-full receiver acknowledged without enqueueing, plus urgent
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
	// ResendAfter is how long a message may stay unacknowledged before it is
	// first retransmitted. Zero disables retransmission (exact-once
	// channels). Subsequent retransmissions of the same frame back off
	// exponentially (doubling, with up to 25% jitter) capped at MaxBackoff.
	ResendAfter time.Duration
	// MaxBackoff caps the per-frame retransmission interval (default
	// 64 × ResendAfter).
	MaxBackoff time.Duration
	// MaxResends caps retransmission attempts per frame; a frame exceeding
	// it is abandoned and counted in Stats.DeadLetters. Zero means
	// unlimited (legacy behavior).
	MaxResends int
	// MaxBatch is the per-destination output buffer size in messages: Send
	// buffers payloads and ships a multi-payload frame when the buffer fills
	// (or on Flush / the FlushInterval tick); a payload that would take the
	// buffer past MaxBatch ships what is buffered first, so no frame exceeds
	// it unless a single payload does. Zero or one sends every payload as
	// its own frame immediately.
	MaxBatch int
	// FlushInterval bounds how long a buffered payload or a deferred ack may
	// wait before a background tick ships it. Only meaningful with
	// MaxBatch > 1 (default 2ms there).
	FlushInterval time.Duration
	// InboxHigh bounds every endpoint's inbox with credit-based flow
	// control: once an inbox holds this many messages the receiver
	// withdraws delivery credit and senders park further data frames
	// locally (they never block) until the receiver drains back to
	// InboxLow. Control traffic — acks and SendNow frames — is never
	// parked, so heartbeats and failure detection are immune to data
	// congestion; a SendNow frame arriving at an inbox already holding
	// InboxHigh messages is instead shed (acknowledged but not enqueued,
	// counted in Stats.UrgentShed), so a starved consumer's control backlog
	// stays bounded too — urgent payloads are refreshed every interval, so
	// dropping the excess loses nothing a later beat does not restate.
	// Zero leaves inboxes unbounded (legacy behavior). The bound is on
	// messages, not frames: a frame already in flight when the watermark
	// trips still lands whole, so momentary overshoot is at most one
	// MaxBatch frame per concurrent sender.
	InboxHigh int
	// InboxLow is the drain watermark that restores credit to a stalled
	// inbox (default InboxHigh/2). The hysteresis gap keeps senders from
	// thrashing between parked and draining one envelope at a time.
	InboxLow int
	// DropSeed seeds the fault-injection and jitter RNGs.
	DropSeed int64
	// Stats, when non-nil, receives the network's counters; otherwise the
	// network allocates its own.
	Stats *Stats
	// Spans, when non-nil, makes the transport trace-aware: frames carrying
	// a traced payload (one implementing trace.Carrier) stamp their delivery
	// on the Envelope, and a resend or dead letter of one records an
	// escalation marker against the trace. The stage spans themselves are
	// recorded by whoever owns the payload's members: the sender closes the
	// output-buffer dwell (batch) before Send, the receiver the frame transit
	// (frame, credit parking included) at Envelope.At.
	Spans *trace.Tracer
	// Wire, when non-nil, attaches a socket substrate (see WireConfig): in
	// ForceLoop mode every frame between local endpoints detours through a
	// real connection; otherwise frames addressed to NodeIDs with no local
	// endpoint are resolved to peer addresses and shipped remotely. Wire
	// deployments should set ResendAfter > 0 — the wire sheds frames freely
	// (reconnects, full queues, partitions) and relies on the resend ledger
	// for recovery.
	Wire *WireConfig
}

// ackEvery is the in-order ack sampling rate in batched mode: one immediate
// cumulative ack per this many frames, the rest deferred to the flush tick.
const ackEvery = 4

// Network connects a set of endpoints. Create one per topology (or per loop
// incarnation: a crash recovery tears the old network down and builds a
// fresh one over the same Stats).
type Network struct {
	mu        sync.Mutex
	endpoints map[NodeID]*Endpoint
	opts      Options
	closed    bool

	// Fault injection lives behind its own mutex plus an atomic gate so the
	// steady-state transmit path (faults off) takes no lock at all.
	faulty   atomic.Bool
	faultMu  sync.Mutex
	rng      *rand.Rand
	dropRate float64 // probability of dropping a data frame in flight
	dupRate  float64 // probability of duplicating a data frame in flight

	// Stats holds the delivery counters (shared with the creator when
	// Options.Stats was set).
	Stats *Stats

	// wire is the socket substrate, nil for pure in-process networks.
	wire *wireHost
}

// NewNetwork returns an empty network.
func NewNetwork(opts Options) *Network {
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 64 * opts.ResendAfter
	}
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
		rng:       rand.New(rand.NewSource(opts.DropSeed)),
		Stats:     st,
	}
	if opts.Wire != nil {
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

// SetFaults configures in-flight fault injection: each data frame is dropped
// with probability drop and duplicated with probability dup.
func (n *Network) SetFaults(drop, dup float64) {
	n.faultMu.Lock()
	n.dropRate, n.dupRate = drop, dup
	n.faultMu.Unlock()
	n.faulty.Store(drop > 0 || dup > 0)
}

// rollFaults draws the drop/duplicate decision for one data frame.
func (n *Network) rollFaults() (drop, dup bool) {
	n.faultMu.Lock()
	roll, roll2 := n.rng.Float64(), n.rng.Float64()
	drop = roll < n.dropRate
	dup = roll2 < n.dupRate
	n.faultMu.Unlock()
	return drop, dup
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
	ep := &Endpoint{
		id:      id,
		net:     n,
		nextSeq: make(map[NodeID]uint64),
		outbuf:  make(map[NodeID]outBuf),
		unacked: make(map[NodeID]map[uint64]*pending),
		recv:    make(map[NodeID]*recvState),
		rng:     rand.New(rand.NewSource(n.opts.DropSeed ^ int64(id)<<17 ^ 0x5bf03635)),
	}
	ep.cond = sync.NewCond(&ep.mu)
	n.endpoints[id] = ep
	if n.opts.ResendAfter > 0 {
		ep.resendStop = make(chan struct{})
		go ep.resendLoop(n.opts.ResendAfter)
	}
	if n.opts.MaxBatch > 1 {
		ep.flushStop = make(chan struct{})
		go ep.flushLoop(n.opts.FlushInterval)
	}
	return ep
}

// Kill simulates a network partition of node id: frames to it vanish
// (senders keep them buffered for retransmission), and its own sends are
// suppressed. State is preserved; Recover undoes it.
func (n *Network) Kill(id NodeID) {
	if ep := n.endpoint(id); ep != nil {
		ep.setDead(true)
		n.invalidateRoutes(id)
	}
}

// Recover reverses Kill: the node receives again, and retransmissions of
// frames lost while it was down will reach it.
func (n *Network) Recover(id NodeID) {
	if ep := n.endpoint(id); ep != nil {
		ep.setDead(false)
		n.invalidateRoutes(id)
	}
}

// Crash tears node id down with true crash semantics: its inbox (delivered
// but unprocessed messages), send buffers (buffered and unacknowledged
// frames) and dedup state are discarded, and blocked Recv calls return false
// immediately. The endpoint cannot be revived — recovery means building a
// new topology.
func (n *Network) Crash(id NodeID) {
	if ep := n.endpoint(id); ep != nil {
		ep.Crash()
		n.invalidateRoutes(id)
	}
}

// invalidateRoutes drops id from every endpoint's peer cache. Correctness
// does not depend on it (deliver checks the destination's own liveness
// flags), but fault transitions are rare and this keeps caches minimal.
func (n *Network) invalidateRoutes(id NodeID) {
	for _, ep := range n.list() {
		ep.peers.Delete(id)
	}
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

// MapSizes sums the per-endpoint bookkeeping maps: dedup entries beyond the
// cumulative-ack watermark and unacknowledged outgoing frames. Both are
// bounded by the in-flight window, not by connection lifetime — the soak
// benchmark asserts this.
func (n *Network) MapSizes() (seen, unacked int) {
	for _, ep := range n.list() {
		seen += ep.SeenSize()
		unacked += ep.Unacked()
	}
	return seen, unacked
}

// pending is an unacknowledged outgoing frame with its retransmission state.
type pending struct {
	f        frame
	nextAt   time.Time     // earliest next retransmission
	backoff  time.Duration // current retransmission interval
	attempts int           // retransmissions so far
}

// recvState is the per-sender receive ledger: next is the contiguous
// watermark (every sequence below it delivered), ahead holds only the
// out-of-order sequences above it, and ackDirty marks a deferred cumulative
// ack owed at the next flush tick.
type recvState struct {
	next     uint64
	ahead    map[uint64]struct{}
	ackDirty bool
}

// payloadPool recycles the per-frame payload slices on paths where the frame
// is not retained for retransmission. A sync.Pool holds pointers, and boxing a
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
	// rebound (Register panics on reuse); invalidated on fault transitions
	// anyway.
	peers sync.Map // NodeID → *Endpoint

	mu    sync.Mutex
	cond  *sync.Cond
	inbox []Envelope
	// inboxMsgs is the number of messages inside inbox (see Counted): what the
	// watermarks and Pending count.
	inboxMsgs int
	closed    bool
	dead      bool
	crashed   bool
	nextSeq   map[NodeID]uint64
	outbuf    map[NodeID]outBuf
	unacked   map[NodeID]map[uint64]*pending
	recv      map[NodeID]*recvState
	rng       *rand.Rand // jitter; guarded by mu

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

	resendStop chan struct{}
	flushStop  chan struct{}
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
// never blocks. Messages from a dead (killed) node are silently suppressed;
// messages to a dead node stay buffered and are retransmitted after the node
// recovers (when the network has a resend timeout).
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
	if e.closed || e.dead {
		e.mu.Unlock()
		return
	}
	var frames [2]frame
	n := 0
	ob := e.outbuf[to]
	if len(ob.payloads) > 0 && ob.msgs+msgs > maxBatch {
		// The payload would take the buffer past MaxBatch: what is buffered
		// ships as its own frame first.
		frames[n] = e.sealLocked(to, ob)
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
		frames[n] = e.sealLocked(to, ob)
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
	if e.closed || e.dead {
		e.mu.Unlock()
		return
	}
	var pre frame
	hasPre := false
	if ob := e.outbuf[to]; len(ob.payloads) > 0 {
		delete(e.outbuf, to)
		pre = e.sealLocked(to, ob)
		hasPre = true
	}
	f := e.sealLocked(to, outBuf{payloads: append(getPayloadSlice(), payload), msgs: payloadLen(payload)})
	f.urgent = true
	if m := e.unacked[to]; m != nil {
		if p := m[f.seq]; p != nil {
			p.f.urgent = true // resends of an urgent frame stay sheddable
		}
	}
	e.mu.Unlock()
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
	if !e.closed && !e.dead {
		frames = e.sealOutbufLocked(frames)
	}
	e.mu.Unlock()
	for _, f := range frames {
		e.transmitData(f)
	}
}

// sealLocked assigns the next sequence number for to, builds the frame from
// the buffer and registers it for retransmission. Caller holds e.mu.
func (e *Endpoint) sealLocked(to NodeID, ob outBuf) frame {
	seq := e.nextSeq[to]
	e.nextSeq[to] = seq + 1
	f := frame{from: e.id, to: to, seq: seq, payloads: ob.payloads, msgs: ob.msgs, traced: ob.traced}
	if after := e.net.opts.ResendAfter; after > 0 {
		m := e.unacked[to]
		if m == nil {
			m = make(map[uint64]*pending)
			e.unacked[to] = m
		}
		m[seq] = &pending{f: f, nextAt: time.Now().Add(after), backoff: after}
	}
	return f
}

// sealOutbufLocked seals every buffered destination, appending the frames to
// frames. Caller holds e.mu.
func (e *Endpoint) sealOutbufLocked(frames []frame) []frame {
	for to, ob := range e.outbuf {
		delete(e.outbuf, to)
		frames = append(frames, e.sealLocked(to, ob))
	}
	return frames
}

// transmitData counts and transmits a first-transmission data frame, and
// recycles its payload slice when the frame is neither retained for resend
// nor parked awaiting credit.
func (e *Endpoint) transmitData(f frame) {
	e.net.Stats.Sent.Add(1)
	e.net.Stats.Payloads.Add(int64(f.msgs))
	if e.holdOrTransmit(f) {
		return // parked; the credit grant transmits (and recycles) it later
	}
	if e.net.recycleAfterTransmit() {
		putPayloadSlice(f.payloads)
	}
}

// recycleAfterTransmit reports whether a transmitted frame's payload slice
// can be recycled by the sender. With resends off and no wire, transmit
// delivers synchronously and retains nothing. A wire makes transmit
// asynchronous — the frame sits in a peer queue still referencing the slice —
// so wire frames are left to the garbage collector instead (wire deployments
// run with resends on anyway, where the ledger owns the slice).
func (n *Network) recycleAfterTransmit() bool {
	return n.opts.ResendAfter <= 0 && n.wire == nil
}

// transmitDataNow is transmitData without the credit check: SendNow traffic
// (heartbeats, failure detection) must reach a congested receiver — acks
// don't queue in the inbox, and one control envelope past the watermark is
// harmless, whereas a parked heartbeat is a false crash suspicion.
func (e *Endpoint) transmitDataNow(f frame) {
	e.net.Stats.Sent.Add(1)
	e.net.Stats.Payloads.Add(int64(f.msgs))
	e.transmit(f)
	if e.net.recycleAfterTransmit() {
		putPayloadSlice(f.payloads)
	}
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
		// bounded peer queue plus the resend ledger) or drops the frame.
		e.transmit(f)
		return false
	}
	e.mu.Lock()
	if !e.closed && !e.crashed && (dst.stalled.Load() || len(e.held[f.to]) > 0 || e.draining[f.to]) {
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
	e.transmitTo(dst, f)
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
// returns immediately rather than interleaving.
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
	recycle := e.net.recycleAfterTransmit()
	for len(e.held[to]) > 0 {
		frames := e.held[to]
		delete(e.held, to)
		// Their resend clocks ran while they were parked; restart them, or
		// the first resend tick after the replay retransmits every one.
		if m := e.unacked[to]; m != nil {
			now := time.Now()
			for _, f := range frames {
				if p := m[f.seq]; p != nil {
					p.nextAt = now.Add(p.backoff)
				}
			}
		}
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
			if recycle {
				putPayloadSlice(f.payloads)
			}
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

// transmit hands a frame to the destination endpoint, applying fault
// injection to data frames. The peer cache keeps the global Network mutex
// off this path. A destination with no local endpoint routes over the wire
// when one is attached (remote deployments); without a wire it is dropped,
// matching the legacy unregistered-destination behavior.
func (e *Endpoint) transmit(f frame) {
	dst := e.peer(f.to)
	if dst == nil {
		if w := e.net.wire; w != nil && !w.cfg.ForceLoop {
			w.send(f)
		}
		return
	}
	e.transmitTo(dst, f)
}

// transmitTo is transmit with the destination already resolved.
func (e *Endpoint) transmitTo(dst *Endpoint, f frame) {
	if !f.ack && e.net.faulty.Load() {
		drop, dup := e.net.rollFaults()
		if drop {
			e.net.Stats.Dropped.Add(1)
			return // lost in flight; the resend loop will retry
		}
		e.net.dispatch(dst, f)
		if dup {
			e.net.Stats.Duplicated.Add(1)
			e.net.dispatch(dst, f) // duplicated in flight; receiver must dedup
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

// deliver is called by a sending endpoint with an incoming frame.
func (e *Endpoint) deliver(f frame) {
	e.mu.Lock()
	if e.closed || e.dead {
		e.mu.Unlock()
		return
	}
	if f.ack {
		if m := e.unacked[f.from]; m != nil {
			delete(m, f.seq)
			// Cumulative compaction: everything below the watermark is
			// delivered even if its dedicated ack was lost or deferred.
			if f.ackUpTo > 0 {
				for seq := range m {
					if seq < f.ackUpTo {
						delete(m, seq)
					}
				}
			}
		}
		e.mu.Unlock()
		return
	}
	st := e.recv[f.from]
	if st == nil {
		st = &recvState{}
		e.recv[f.from] = st
	}
	var dup, inOrder, shed bool
	switch {
	case f.seq < st.next:
		dup = true
	case st.ahead != nil:
		_, dup = st.ahead[f.seq]
	}
	if !dup {
		if f.seq == st.next {
			inOrder = true
			st.next++
			// Fold now-contiguous out-of-order arrivals into the watermark;
			// this is what keeps the dedup map bounded by the reorder window.
			for len(st.ahead) > 0 {
				if _, ok := st.ahead[st.next]; !ok {
					break
				}
				delete(st.ahead, st.next)
				st.next++
			}
		} else {
			if st.ahead == nil {
				st.ahead = make(map[uint64]struct{})
			}
			st.ahead[f.seq] = struct{}{}
		}
		// An urgent frame meeting a watermark-full inbox is shed: the seq
		// bookkeeping above stands and the ack below confirms it, but the
		// payloads are not enqueued — its sender refreshes them every
		// interval, and appending would grow a starved consumer's backlog
		// without bound (urgent traffic is exempt from sender-side parking).
		if high := e.net.opts.InboxHigh; f.urgent && high > 0 && e.inboxMsgs >= high {
			shed = true
		} else {
			// Frame transit (seal -> inbox, credit parking included) ends
			// here; the payloads are the sender's to retransmit, so the stamp
			// rides the envelope and the receiver closes the stage.
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
	}
	stalledNow := false
	if high := e.net.opts.InboxHigh; high > 0 && e.inboxMsgs >= high && !e.stalled.Load() {
		e.stalled.Store(true)
		stalledNow = true
	}
	// Acks feed the sender's resend ledger; without one (ResendAfter 0)
	// there is nothing to ack, now or deferred.
	resend := e.net.opts.ResendAfter > 0
	ackNow := resend
	if resend && e.net.opts.MaxBatch > 1 && inOrder && st.next%ackEvery != 0 {
		// Defer the ack: a later frame's cumulative watermark (or the flush
		// tick) covers this one. Duplicates and out-of-order frames are
		// acked immediately — the sender is demonstrably missing state.
		st.ackDirty = true
		ackNow = false
	}
	ackUpTo := st.next
	e.mu.Unlock()
	if stalledNow {
		e.net.Stats.Stalls.Add(1)
	}
	if shed {
		e.net.Stats.UrgentShed.Add(1)
	} else if !dup {
		e.net.Stats.Delivered.Add(int64(f.msgs))
	}
	if ackNow {
		e.net.Stats.AckFrames.Add(1)
		e.transmit(frame{from: e.id, to: f.from, seq: f.seq, ack: true, ackUpTo: ackUpTo})
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
func (e *Endpoint) Recv() (Envelope, bool) {
	e.mu.Lock()
	for len(e.inbox) == 0 && !e.closed {
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

// TryRecv returns the next message without blocking.
func (e *Endpoint) TryRecv() (Envelope, bool) {
	e.mu.Lock()
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
	var frames []frame
	if !e.dead {
		frames = e.sealOutbufLocked(nil)
	}
	e.closed = true
	if e.resendStop != nil {
		close(e.resendStop)
	}
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
// messages, buffered and unacknowledged outgoing frames and dedup state are
// all discarded, as a process crash would lose them. Blocked Recv calls
// return false immediately (nothing is drained). Idempotent.
func (e *Endpoint) Crash() {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return
	}
	e.crashed = true
	e.dead = true
	e.inbox, e.inboxMsgs = nil, 0
	e.outbuf = make(map[NodeID]outBuf)
	e.unacked = make(map[NodeID]map[uint64]*pending)
	e.recv = make(map[NodeID]*recvState)
	e.held = nil // our own parked frames die with us
	if !e.closed {
		e.closed = true
		if e.resendStop != nil {
			close(e.resendStop)
		}
		if e.flushStop != nil {
			close(e.flushStop)
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
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

func (e *Endpoint) setDead(dead bool) {
	e.mu.Lock()
	e.dead = dead
	e.mu.Unlock()
}

// flushLoop is the batching latency backstop: it ships buffers and deferred
// acks that no explicit Flush picked up within FlushInterval.
func (e *Endpoint) flushLoop(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	resend := e.net.opts.ResendAfter > 0 // only a resend ledger defers acks
	for {
		select {
		case <-e.flushStop:
			return
		case <-tick.C:
		}
		e.mu.Lock()
		var frames []frame
		var acks []frame
		if !e.closed && !e.dead {
			frames = e.sealOutbufLocked(nil)
			if resend {
				for from, st := range e.recv {
					if st.ackDirty {
						st.ackDirty = false
						acks = append(acks, frame{from: e.id, to: from, seq: st.next - 1, ack: true, ackUpTo: st.next})
					}
				}
			}
		}
		e.mu.Unlock()
		for _, f := range frames {
			e.transmitData(f)
		}
		for _, f := range acks {
			e.net.Stats.AckFrames.Add(1)
			e.transmit(f)
		}
	}
}

// resendLoop periodically retransmits unacknowledged frames. Each frame
// backs off exponentially (doubling with up to 25% jitter, capped at
// MaxBackoff); frames exceeding MaxResends attempts are dead-lettered.
func (e *Endpoint) resendLoop(after time.Duration) {
	tick := time.NewTicker(after / 2)
	defer tick.Stop()
	maxResends := e.net.opts.MaxResends
	maxBackoff := e.net.opts.MaxBackoff
	for {
		select {
		case <-e.resendStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		var retry []frame
		var deadTraced []frame
		dead := 0
		e.mu.Lock()
		if e.dead || e.closed {
			e.mu.Unlock()
			continue
		}
		for to, m := range e.unacked {
			// Frames parked for this destination were never delivered;
			// retransmitting them here would race the credit-grant replay
			// and deliver a second copy out of order — and, resends skipping
			// the credit check, would pour the whole parked backlog into the
			// inbox the stall protects. While a replay runs the queue is in
			// releaseHeld's hands (held is empty, draining set). The resend
			// clock resumes once the grant empties the queue.
			if len(e.held[to]) > 0 || e.draining[to] {
				continue
			}
			for seq, p := range m {
				if now.Before(p.nextAt) {
					continue
				}
				if maxResends > 0 && p.attempts >= maxResends {
					delete(m, seq)
					dead++
					if p.f.traced {
						deadTraced = append(deadTraced, p.f)
					}
					continue
				}
				p.attempts++
				p.backoff *= 2
				if p.backoff > maxBackoff {
					p.backoff = maxBackoff
				}
				// Jitter desynchronizes retransmission bursts after a
				// recovery (up to +25% of the interval).
				jitter := time.Duration(e.rng.Int63n(int64(p.backoff)/4 + 1))
				p.nextAt = now.Add(p.backoff + jitter)
				retry = append(retry, p.f)
			}
		}
		e.mu.Unlock()
		for i := 0; i < dead; i++ {
			e.net.Stats.DeadLetters.Add(1)
		}
		for _, f := range retry {
			e.net.Stats.Sent.Add(1)
			e.net.Stats.Resent.Add(1)
			e.transmit(f)
		}
		// A retried or abandoned traced frame is exactly the anomaly tail
		// sampling exists for: record the marker against the trace and open
		// the escalation window so the aftermath is fully traced.
		if sp := e.net.opts.Spans; sp.Enabled() && (len(deadTraced) > 0 || len(retry) > 0) {
			spanNow := sp.Now()
			for _, f := range deadTraced {
				sp.Escalate(trace.MarkDeadLetter, frameTraceCtx(f), spanNow)
			}
			for _, f := range retry {
				if f.traced {
					sp.Escalate(trace.MarkResend, frameTraceCtx(f), spanNow)
				}
			}
		}
	}
}

// frameTraceCtx extracts the first traced payload context of a frame, for
// attributing resend/dead-letter escalation markers to a concrete trace.
func frameTraceCtx(f frame) trace.Context {
	for _, pl := range f.payloads {
		if c, ok := pl.(trace.Carrier); ok {
			if ctx := c.TraceCtx(); ctx.Traced() {
				return ctx
			}
		}
	}
	return trace.Context{}
}

// Unacked reports how many frames this endpoint is still waiting to have
// acknowledged (diagnostics and tests).
func (e *Endpoint) Unacked() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, m := range e.unacked {
		n += len(m)
	}
	return n
}

// SeenSize reports how many dedup entries this endpoint holds beyond the
// cumulative-ack watermarks (out-of-order sequences only). Bounded by the
// reorder window, not by traffic volume.
func (e *Endpoint) SeenSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.recv {
		n += len(st.ahead)
	}
	return n
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
