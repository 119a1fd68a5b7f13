// Wire host: attaches a real (or in-memory) socket substrate to a Network,
// and keeps the transport's one at-least-once ledger.
//
// The in-process transport delivers frames by calling the destination
// endpoint's deliver method directly, and nothing on that path can lose a
// frame. With a wire configured, that final hop is replaced by serialization:
// the frame is encoded (wirecodec.go), queued on a supervised per-peer
// connection, crosses a Conn (TCP or mem), and the receiving host's reader
// decodes it and hands it to the local destination endpoint's deliver.
//
// Two deployment shapes share the machinery:
//
//   - ForceLoop: every frame of a single-process Network detours through a
//     connection to the host's own listener. All endpoints stay local, but
//     each frame pays encode → socket → decode, so the chaos suites and
//     benchmarks exercise an honest wire without a cluster.
//   - Remote resolve: Resolve maps NodeIDs that are not registered locally
//     to peer addresses, so several processes each hosting a Network slice
//     form one topology (cmd/tornado-node).
//
// The connection is a supervised object. Each peer address owns one writer
// goroutine with a bounded frame queue: it dials with exponential backoff
// plus jitter, encodes and coalesces queued frames into batched writes, and
// on any write error drops the conn and redials. Readers drop a connection
// on any checksum failure or torn frame instead of delivering garbage, and
// an optional read-idle deadline evicts stuck peers so silence turns into
// the missed heartbeats the engine's failure detector already judges.
//
// # The ledger
//
// The wire sheds frames freely — full queues, dropped connections, faults —
// so it is where at-least-once delivery lives. The host numbers each (from,
// to) pair's frames as they enter a peer queue and keeps each one until the
// receiving host acknowledges it. Acks are cumulative: an ack carries the
// receiver's contiguous watermark, so a lost ack is covered by the next one,
// and both sides' bookkeeping stays bounded by the in-flight window.
// Receivers dedup and ack in the reader before the frame reaches the
// endpoint, acking every ackEvery-th in-order frame at once and deferring
// the rest to the ledger tick; duplicates and out-of-order frames are acked
// at once. Acks ride the control lane (see send): on the data lane an ack
// waits behind every data frame the sender's reader has yet to decode, and a
// late ack is a spurious resend, which lengthens that backlog. A frame's
// resend clock starts when the writer writes it (or sheds it at a full
// queue), not when it is queued: a frame waiting in a peer queue is not
// lost, and resending it would only grow the queue. Retransmissions back off
// exponentially with jitter up to 64 × ResendAfter. Frames an endpoint parks
// for credit never reach the wire, so the ledger never holds them. A crashed
// endpoint's unacknowledged frames are forgotten, as its process would have
// lost them.
package transport

import (
	"errors"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"

	"tornado/internal/obs/trace"
)

// WireConfig attaches a socket substrate to a Network via Options.Wire.
type WireConfig struct {
	// Listener accepts inbound peer connections. Required.
	Listener Listener
	// Dialer opens outbound peer connections. Required.
	Dialer Dialer
	// Codec serializes frame payloads (default GobPayloadCodec).
	Codec PayloadCodec
	// Resolve maps a NodeID with no local endpoint to its host's wire
	// address ("" = unknown, the frame is dropped). Unused in ForceLoop
	// mode, where every endpoint is local.
	Resolve func(NodeID) string
	// ForceLoop detours every frame — even between two endpoints of this
	// same Network — through a connection to the host's own listener, so a
	// single process exercises the full serialize/socket/decode path.
	ForceLoop bool
	// Faults, when non-nil, wraps every dialed conn with socket-level fault
	// injection (latency, loss, corruption, partition, slow-drip).
	Faults *WireFaults
	// DialBackoff / MaxDialBackoff bound the supervised reconnect loop
	// (defaults 5ms / 1s; each failed dial doubles the wait, with up to
	// 25% jitter so a restarted hub is not hit by a thundering herd).
	DialBackoff    time.Duration
	MaxDialBackoff time.Duration
	// ReadIdle, when positive, drops a peer connection that delivers
	// nothing for this long. A stuck or silently dead peer then stops
	// occupying a reader, and the resulting missed heartbeats feed the
	// engine's failure detector. Size it well above the heartbeat interval.
	ReadIdle time.Duration
	// QueueLen bounds each peer's outbound frame queue (default 1024).
	// Frames arriving at a full queue are shed — the ledger retransmits
	// them once the writer catches up.
	QueueLen int
	// OnPeerDown, when non-nil, is called whenever a peer connection is
	// dropped (dial failure storms excluded): once per established conn
	// that dies, with the peer address and cause.
	OnPeerDown func(addr string, err error)
	// ObserveFlush, when non-nil, receives the number of frames coalesced
	// into each socket flush (the frames-per-encode histogram).
	ObserveFlush func(frames int)
}

func (c *WireConfig) fill() {
	if c.Codec == nil {
		c.Codec = GobPayloadCodec{}
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 5 * time.Millisecond
	}
	if c.MaxDialBackoff <= 0 {
		c.MaxDialBackoff = time.Second
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
}

// wireHost is the per-Network wire runtime: the accept/reader side, the
// supervised outbound peers and the ledger.
type wireHost struct {
	net  *Network
	cfg  WireConfig
	self string

	mu     sync.Mutex
	peers  map[string]*wirePeer
	conns  map[Conn]struct{} // accepted conns, for teardown
	closed bool
	stop   chan struct{} // closed by close: ends the ledger loop
	wg     sync.WaitGroup

	// The ledger (see the file comment), guarded by lmu. after is
	// Options.ResendAfter.
	after time.Duration
	lmu   sync.Mutex
	sent  map[pairKey]*sendState
	recv  map[pairKey]*recvState
	rng   *rand.Rand // resend jitter
}

// ackEvery is the in-order ack sampling rate: one immediate cumulative ack
// per this many frames, the rest deferred to the ledger tick.
const ackEvery = 4

// wireFrame is a frame as the wire carries it: a data frame with the
// sending host's sequence number for its (from, to) pair, or an ack.
type wireFrame struct {
	frame
	seq uint64
	// ack marks an acknowledgement of data frame seq from the pair to → from;
	// ackUpTo is the receiver's contiguous watermark: every sequence below it
	// has been delivered, so the sender may forget all of them even if their
	// own acks were lost or deferred.
	ack     bool
	ackUpTo uint64
}

// pairKey names one direction of traffic between two endpoints: the unit the
// ledger numbers, dedups and acks.
type pairKey struct{ from, to NodeID }

// sendState is the sending side of one pair: the last sequence assigned, the
// cumulative ack watermark and the frames still unacknowledged above it.
type sendState struct {
	last    uint64
	ackedTo uint64
	unacked map[uint64]*pending
}

// pending is an unacknowledged frame with its retransmission state. Its
// clock is armed (nextAt set) when the writer writes or sheds the frame, and
// disarmed while a copy waits in a peer queue.
type pending struct {
	f       wireFrame
	nextAt  time.Time
	backoff time.Duration
}

// recvState is the receiving side of one pair: next is the contiguous
// watermark (every sequence below it delivered), ahead holds only the
// out-of-order sequences above it, and ackDirty marks a deferred cumulative
// ack owed at the next ledger tick.
type recvState struct {
	next     uint64
	ahead    map[uint64]struct{}
	ackDirty bool
}

func newWireHost(n *Network, cfg WireConfig) *wireHost {
	cfg.fill()
	h := &wireHost{
		net:   n,
		cfg:   cfg,
		self:  cfg.Listener.Addr(),
		peers: make(map[string]*wirePeer),
		conns: make(map[Conn]struct{}),
		stop:  make(chan struct{}),
		after: n.opts.ResendAfter,
		sent:  make(map[pairKey]*sendState),
		recv:  make(map[pairKey]*recvState),
		rng:   rand.New(rand.NewSource(n.opts.DropSeed ^ 0x5bf03635)),
	}
	h.wg.Add(2)
	go h.acceptLoop()
	go h.ledgerLoop()
	return h
}

// Addr returns the listener's bound address (the host's wire identity).
func (h *wireHost) Addr() string { return h.self }

// route returns the wire address of node to's host ("" = unroutable).
func (h *wireHost) route(to NodeID) string {
	if h.cfg.ForceLoop {
		return h.self
	}
	if h.cfg.Resolve == nil {
		return ""
	}
	return h.cfg.Resolve(to)
}

// send routes one data frame over the wire, numbering it for the ledger.
// Never blocks: a full peer queue sheds the frame, and its resend clock
// starts at once.
//
// Urgent control traffic (heartbeats, halt votes, and the ledger's acks)
// rides a dedicated control-plane connection per peer: with a shared socket
// a heartbeat written after a replay storm of data frames sits behind
// megabytes of bytes the receiver must decode first, and the starved failure
// detector declares the peer dead — a recovery livelock. A separate conn
// gives control frames their own socket and their own reader.
func (h *wireHost) send(f frame) {
	p := h.peerFor(f.to, f.urgent)
	if p == nil {
		return
	}
	wf := wireFrame{frame: f}
	k := pairKey{f.from, f.to}
	h.lmu.Lock()
	st := h.sent[k]
	if st == nil {
		st = &sendState{ackedTo: 1, unacked: make(map[uint64]*pending)}
		h.sent[k] = st
	}
	st.last++
	wf.seq = st.last
	pd := &pending{f: wf, backoff: h.after}
	st.unacked[wf.seq] = pd
	// Pushing under lmu keeps each pair's queue order its sequence order;
	// the push never blocks.
	if !p.push(wf) {
		h.armLocked(pd, time.Now())
	}
	h.lmu.Unlock()
}

// peerFor resolves node to's peer lane, counting an unroutable frame as shed.
func (h *wireHost) peerFor(to NodeID, urgent bool) *wirePeer {
	addr := h.route(to)
	if addr == "" {
		h.net.Stats.WireShed.Add(1)
		return nil
	}
	p := h.peer(addr, urgent)
	if p == nil {
		h.net.Stats.WireShed.Add(1)
	}
	return p
}

// armLocked starts a pending frame's resend clock. Caller holds lmu.
func (h *wireHost) armLocked(pd *pending, now time.Time) {
	// Jitter desynchronizes retransmission bursts after a recovery (up to
	// +25% of the interval).
	jitter := time.Duration(h.rng.Int63n(int64(pd.backoff)/4 + 1))
	pd.nextAt = now.Add(pd.backoff + jitter)
}

// arm starts the resend clocks of frames the writer has just written (or
// lost with its connection). Acks have no clock, and a frame acknowledged
// meanwhile is gone.
func (h *wireHost) arm(written []wireFrame) {
	now := time.Now()
	h.lmu.Lock()
	for i := range written {
		f := &written[i]
		if f.ack {
			continue
		}
		if st := h.sent[pairKey{f.from, f.to}]; st != nil {
			if pd := st.unacked[f.seq]; pd != nil {
				h.armLocked(pd, now)
			}
		}
	}
	h.lmu.Unlock()
}

// acked applies an ack to the pair it acknowledges: the frame itself, and
// everything below the receiver's watermark.
func (h *wireHost) acked(a wireFrame) {
	h.lmu.Lock()
	if st := h.sent[pairKey{a.to, a.from}]; st != nil {
		delete(st.unacked, a.seq)
		for upTo := min(a.ackUpTo, st.last+1); st.ackedTo < upTo; st.ackedTo++ {
			delete(st.unacked, st.ackedTo)
		}
	}
	h.lmu.Unlock()
}

// admit runs the receiving side of the ledger for a numbered data frame: it
// reports whether the frame is new (a duplicate is dropped) and acks it, at
// once or at the next ledger tick.
func (h *wireHost) admit(f *wireFrame) bool {
	k := pairKey{f.from, f.to}
	h.lmu.Lock()
	st := h.recv[k]
	if st == nil {
		st = &recvState{next: 1}
		h.recv[k] = st
	}
	dup, inOrder := f.seq < st.next, false
	if !dup && st.ahead != nil {
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
	}
	// Defer the ack of an in-order frame when a ledger tick will sweep it: a
	// later frame's cumulative watermark (or the tick) covers it. Duplicates
	// and out-of-order frames are acked at once — the sender is demonstrably
	// missing state.
	deferAck := inOrder && st.next%ackEvery != 0
	st.ackDirty = deferAck
	upTo := st.next
	h.lmu.Unlock()
	if !deferAck {
		h.sendAck(f.to, f.from, f.seq, upTo)
	}
	return !dup
}

// sendAck acknowledges sequence seq of the pair to → from (the ack itself
// travels from → to), carrying the watermark upTo. It rides the control
// lane; an ack shed there is restated by the next one, or by the reply to
// the resend it provokes.
func (h *wireHost) sendAck(from, to NodeID, seq, upTo uint64) {
	if p := h.peerFor(to, true); p != nil {
		h.net.Stats.AckFrames.Add(1)
		p.push(wireFrame{frame: frame{from: from, to: to}, seq: seq, ack: true, ackUpTo: upTo})
	}
}

// forget drops a crashed endpoint's unacknowledged frames: those it sent die
// with it, as its process's send buffers would, and those addressed to it
// would only be dropped on arrival. The receive watermarks stay — copies of
// its frames still in flight must meet the dedup that already saw them.
func (h *wireHost) forget(id NodeID) {
	h.lmu.Lock()
	for k := range h.sent {
		if k.from == id || k.to == id {
			delete(h.sent, k)
		}
	}
	h.lmu.Unlock()
}

// ledgerLoop is the host's one ledger goroutine: every half ResendAfter it
// retransmits frames whose armed clock ran out and sends the deferred acks.
func (h *wireHost) ledgerLoop() {
	defer h.wg.Done()
	tick := time.NewTicker(h.after / 2)
	defer tick.Stop()
	maxBackoff := 64 * h.after
	var retry, acks []wireFrame
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		retry, acks = retry[:0], acks[:0]
		h.lmu.Lock()
		for _, st := range h.sent {
			for _, pd := range st.unacked {
				if pd.nextAt.IsZero() || now.Before(pd.nextAt) {
					continue
				}
				pd.backoff = min(2*pd.backoff, maxBackoff)
				pd.nextAt = time.Time{} // re-armed when the copy is written
				retry = append(retry, pd.f)
			}
		}
		for k, st := range h.recv {
			if st.ackDirty {
				st.ackDirty = false
				acks = append(acks, wireFrame{frame: frame{from: k.to, to: k.from}, seq: st.next - 1, ackUpTo: st.next})
			}
		}
		h.lmu.Unlock()
		var shed []wireFrame
		for _, f := range retry {
			h.net.Stats.Sent.Add(1)
			h.net.Stats.Resent.Add(1)
			if p := h.peerFor(f.to, f.urgent); p == nil || !p.push(f) {
				shed = append(shed, f)
			}
		}
		if len(shed) > 0 {
			h.arm(shed)
		}
		for _, a := range acks {
			h.sendAck(a.from, a.to, a.seq, a.ackUpTo)
		}
		// A retried traced frame is exactly the anomaly tail sampling exists
		// for: record the marker against the trace and open the escalation
		// window so the aftermath is fully traced.
		if sp := h.net.opts.Spans; sp.Enabled() {
			spanNow := sp.Now()
			for _, f := range retry {
				if f.traced {
					sp.Escalate(trace.MarkResend, frameTraceCtx(f.frame), spanNow)
				}
			}
		}
		clear(retry) // drop payload references until the next tick
	}
}

// frameTraceCtx extracts the first traced payload context of a frame, for
// attributing a resend marker to a concrete trace.
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

// ledgerSizes sums the ledger's bookkeeping: dedup entries beyond the
// receive watermarks and unacknowledged outgoing frames. Both are bounded by
// the in-flight window, not by connection lifetime.
func (h *wireHost) ledgerSizes() (seen, unacked int) {
	h.lmu.Lock()
	defer h.lmu.Unlock()
	for _, st := range h.recv {
		seen += len(st.ahead)
	}
	for _, st := range h.sent {
		unacked += len(st.unacked)
	}
	return seen, unacked
}

// peer returns (creating on first use) the supervised connection to addr.
// Each peer address has up to two lanes — bulk data and urgent control —
// each a wirePeer with its own conn, queue, and reconnect supervision.
func (h *wireHost) peer(addr string, urgent bool) *wirePeer {
	key := addr
	qlen := h.cfg.QueueLen
	if urgent {
		key = "\x00u|" + addr // NUL prefix cannot collide with a real address
		qlen = 64             // small refreshable frames: beats, votes, cumulative acks
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	p := h.peers[key]
	if p == nil {
		p = &wirePeer{
			host: h,
			addr: addr,
			q:    make(chan wireFrame, qlen),
			stop: make(chan struct{}),
			rng:  rand.New(rand.NewSource(h.net.opts.DropSeed ^ int64(addrHash(key)))),
		}
		h.peers[key] = p
		h.wg.Add(1)
		go p.run()
	}
	return p
}

func addrHash(addr string) uint32 {
	fh := fnv.New32a()
	_, _ = fh.Write([]byte(addr))
	return fh.Sum32()
}

// acceptLoop owns the listener: every inbound conn gets a reader goroutine.
func (h *wireHost) acceptLoop() {
	defer h.wg.Done()
	for {
		c, err := h.cfg.Listener.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = c.Close()
			return
		}
		h.conns[c] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.readLoop(c)
	}
}

// readLoop decodes inbound frames and hands them to local endpoints, running
// the ledger's receive side first. Any corruption — checksum mismatch, torn
// frame, malformed lengths — drops the whole connection: delivering a frame
// that fails verification is never an option, and the peer's ledger replays
// what was lost.
func (h *wireHost) readLoop(c Conn) {
	defer h.wg.Done()
	defer func() {
		h.mu.Lock()
		delete(h.conns, c)
		h.mu.Unlock()
		_ = c.Close()
	}()
	var buf []byte
	for {
		if h.cfg.ReadIdle > 0 {
			_ = c.SetReadDeadline(time.Now().Add(h.cfg.ReadIdle))
		}
		b, err := c.ReadFrame(buf)
		if err != nil {
			if isTornRead(err) {
				h.net.Stats.WireTornFrames.Add(1)
			}
			h.peerDown(c.RemoteAddr(), err)
			return
		}
		buf = b
		h.net.Stats.WireRxBytes.Add(int64(len(b) + 4))
		f, err := decodeFrame(b, h.cfg.Codec)
		if err != nil {
			if errors.Is(err, errWireChecksum) {
				h.net.Stats.WireChecksumFailures.Add(1)
			} else {
				h.net.Stats.WireTornFrames.Add(1)
			}
			h.peerDown(c.RemoteAddr(), err)
			return
		}
		h.net.Stats.WireRxFrames.Add(1)
		if f.ack {
			h.acked(f)
			continue
		}
		if ep := h.net.endpoint(f.to); ep == nil {
			h.net.Stats.WireShed.Add(1)
		} else if h.admit(&f) {
			ep.deliver(f.frame)
		}
		// deliver copies payload references into the inbox; the slice
		// itself is ours to recycle.
		putPayloadSlice(f.payloads)
	}
}

// isTornRead classifies read failures that indicate a frame died mid-write —
// a corrupt length prefix or a body cut short — as opposed to a clean close
// or an idle eviction.
func isTornRead(err error) bool {
	return errors.Is(err, errWireLength) || errors.Is(err, io.ErrUnexpectedEOF)
}

// peerDown notifies the supervisor hook of one dead connection (reader or
// writer side) unless the host is closing.
func (h *wireHost) peerDown(addr string, err error) {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if !closed && h.cfg.OnPeerDown != nil {
		h.cfg.OnPeerDown(addr, err)
	}
}

// close tears the wire down: listener, accepted conns, peer writers.
func (h *wireHost) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	close(h.stop)
	peers := make([]*wirePeer, 0, len(h.peers))
	for _, p := range h.peers {
		peers = append(peers, p)
	}
	conns := make([]Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	_ = h.cfg.Listener.Close()
	for _, p := range peers {
		p.stopOnce.Do(func() { close(p.stop) })
	}
	for _, c := range conns {
		_ = c.Close()
	}
	h.wg.Wait()
}

// wirePeer is one supervised outbound connection: a bounded frame queue
// drained by a writer goroutine that dials, batches, and reconnects.
type wirePeer struct {
	host     *wireHost
	addr     string
	q        chan wireFrame
	stop     chan struct{}
	stopOnce sync.Once
	rng      *rand.Rand
}

// push queues f without blocking and reports whether it was queued; a full
// queue sheds it (a full urgent lane sheds refreshable control traffic).
func (p *wirePeer) push(f wireFrame) bool {
	select {
	case p.q <- f:
		return true
	default:
		if f.urgent {
			p.host.net.Stats.UrgentShed.Add(1)
		} else {
			p.host.net.Stats.WireShed.Add(1)
		}
		return false
	}
}

// run is the writer loop. One live conn at a time; any error tears it down
// and the next frame triggers a redial with exponential backoff + jitter.
// Every data frame it dequeues has its resend clock armed after the write,
// whether the write succeeded or died with the conn.
func (p *wirePeer) run() {
	defer p.host.wg.Done()
	var conn Conn
	var established int
	encBuf := make([]byte, 0, 16<<10)
	var written []wireFrame
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		var f wireFrame
		select {
		case <-p.stop:
			return
		case f = <-p.q:
		}
		if conn == nil {
			conn = p.dial(&established)
			if conn == nil {
				return // host closing; queued frames die with it
			}
		}
		// Encode the frame plus everything else already queued, then flush
		// once: frames-per-flush is the wire's batching ratio.
		written = append(written[:0], f)
		frames := 0
		var werr error
		encBuf, werr = p.writeOne(conn, encBuf, f)
		if werr == nil {
			frames++
		drain:
			for {
				select {
				case f2 := <-p.q:
					written = append(written, f2)
					encBuf, werr = p.writeOne(conn, encBuf, f2)
					if werr != nil {
						break drain
					}
					frames++
				default:
					break drain
				}
			}
		}
		if werr == nil {
			werr = conn.Flush()
		}
		if frames > 0 && p.host.cfg.ObserveFlush != nil {
			p.host.cfg.ObserveFlush(frames)
		}
		p.host.arm(written)
		clear(written) // drop payload references while the queue is idle
		if werr != nil {
			// The conn is gone, and with it everything dequeued but
			// unflushed — recovered by the ledger, which still holds every
			// unacknowledged frame.
			_ = conn.Close()
			conn = nil
			p.host.peerDown(p.addr, werr)
		}
	}
}

// writeOne encodes one frame into scratch and writes it. Encode failures
// (an unregistered payload type, typically) skip the frame and count it;
// they are a programming error, not a connection fault.
func (p *wirePeer) writeOne(conn Conn, scratch []byte, f wireFrame) ([]byte, error) {
	b, err := encodeFrame(scratch[:0], &f, p.host.cfg.Codec)
	if err != nil {
		p.host.net.Stats.WireEncodeErrors.Add(1)
		return scratch, nil
	}
	if err := conn.WriteFrame(b); err != nil {
		return b, err
	}
	p.host.net.Stats.WireTxFrames.Add(1)
	p.host.net.Stats.WireTxBytes.Add(int64(len(b) + 4))
	return b, nil
}

// dial establishes the peer conn, backing off exponentially with jitter
// between attempts. Returns nil only when the host shuts down.
func (p *wirePeer) dial(established *int) Conn {
	backoff := p.host.cfg.DialBackoff
	for {
		select {
		case <-p.stop:
			return nil
		default:
		}
		d := p.host.cfg.Dialer
		if p.host.cfg.Faults != nil {
			d = FaultDialer{Dialer: d, Faults: p.host.cfg.Faults}
		}
		c, err := d.Dial(p.addr)
		if err == nil {
			if *established > 0 {
				p.host.net.Stats.WireReconnects.Add(1)
			}
			*established++
			return c
		}
		jitter := time.Duration(p.rng.Int63n(int64(backoff)/4 + 1))
		select {
		case <-p.stop:
			return nil
		case <-time.After(backoff + jitter):
		}
		if backoff *= 2; backoff > p.host.cfg.MaxDialBackoff {
			backoff = p.host.cfg.MaxDialBackoff
		}
	}
}
