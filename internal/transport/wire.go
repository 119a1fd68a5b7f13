// Wire host: attaches a real (or in-memory) socket substrate to a Network.
//
// The in-process transport delivers frames by calling the destination
// endpoint's deliver method directly. With a wire configured, that final hop
// is replaced by serialization: the frame is encoded (wirecodec.go), queued
// on a supervised per-peer connection, crosses a Conn (TCP or mem), and the
// receiving host's reader decodes it and hands it to the local destination
// endpoint's deliver — the exact same at-least-once frame/batch/ack protocol,
// now surviving real sockets.
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
// on any write error drops the conn and redials. Frames lost in the gap are
// not the wire's problem: the sender's cumulative-ack/resend ledger already
// holds everything unacknowledged, so reconnection replays exactly the
// frames the receiver has not folded into its watermark — no loss, and no
// duplication past the ack watermark. Readers drop a connection on any
// checksum failure or torn frame instead of delivering garbage, and an
// optional read-idle deadline evicts stuck peers so silence turns into the
// missed heartbeats the PR 2 failure detector already knows how to judge.
package transport

import (
	"errors"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"time"
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
	// Frames arriving at a full queue are shed — the resend ledger
	// retransmits them once the writer catches up.
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

// wireHost is the per-Network wire runtime: the accept/reader side plus the
// supervised outbound peers.
type wireHost struct {
	net  *Network
	cfg  WireConfig
	self string

	mu     sync.Mutex
	peers  map[string]*wirePeer
	conns  map[Conn]struct{} // accepted conns, for teardown
	closed bool
	wg     sync.WaitGroup
}

func newWireHost(n *Network, cfg WireConfig) *wireHost {
	cfg.fill()
	h := &wireHost{
		net:   n,
		cfg:   cfg,
		self:  cfg.Listener.Addr(),
		peers: make(map[string]*wirePeer),
		conns: make(map[Conn]struct{}),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

// Addr returns the listener's bound address (the host's wire identity).
func (h *wireHost) Addr() string { return h.self }

// send routes one frame over the wire. ForceLoop frames go to the host's
// own listener; otherwise the destination resolves through cfg.Resolve.
// Never blocks: a full peer queue sheds the frame (resend recovers it).
func (h *wireHost) send(f frame) {
	addr := h.self
	if !h.cfg.ForceLoop {
		if h.cfg.Resolve == nil {
			h.net.Stats.WireShed.Add(1)
			return
		}
		addr = h.cfg.Resolve(f.to)
		if addr == "" {
			h.net.Stats.WireShed.Add(1)
			return
		}
	}
	// Urgent control traffic (heartbeats, halt votes) rides a dedicated
	// control-plane connection per peer: with a shared socket a heartbeat
	// written after a replay storm of data frames sits behind megabytes of
	// bytes the receiver must decode first, and the starved failure detector
	// declares the peer dead — a recovery livelock. A separate conn gives
	// control frames their own socket and their own reader. A full urgent
	// lane sheds — urgent payloads are refreshed every interval.
	p := h.peer(addr, f.urgent)
	if p == nil {
		h.net.Stats.WireShed.Add(1)
		return
	}
	select {
	case p.q <- f:
	default:
		if f.urgent {
			h.net.Stats.UrgentShed.Add(1)
		} else {
			h.net.Stats.WireShed.Add(1)
		}
	}
}

// peer returns (creating on first use) the supervised connection to addr.
// Each peer address has up to two lanes — bulk data and urgent control —
// each a wirePeer with its own conn, queue, and reconnect supervision.
func (h *wireHost) peer(addr string, urgent bool) *wirePeer {
	key := addr
	qlen := h.cfg.QueueLen
	if urgent {
		key = "\x00u|" + addr // NUL prefix cannot collide with a real address
		qlen = 64             // low-rate refreshable control traffic
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
			q:    make(chan frame, qlen),
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

// readLoop decodes inbound frames and hands them to local endpoints. Any
// corruption — checksum mismatch, torn frame, malformed lengths — drops the
// whole connection: delivering a frame that fails verification is never an
// option, and the peer's resend ledger replays what was lost.
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
			h.connDown(c, err, isTornRead(err))
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
			h.connDown(c, err, false)
			return
		}
		h.net.Stats.WireRxFrames.Add(1)
		if ep := h.net.endpoint(f.to); ep != nil {
			ep.deliver(f)
			// deliver copies payload references into the inbox; the slice
			// itself is ours to recycle.
			putPayloadSlice(f.payloads)
		} else {
			h.net.Stats.WireShed.Add(1)
		}
	}
}

// isTornRead classifies read failures that indicate a frame died mid-write —
// a corrupt length prefix or a body cut short — as opposed to a clean close
// or an idle eviction.
func isTornRead(err error) bool {
	return errors.Is(err, errWireLength) || errors.Is(err, io.ErrUnexpectedEOF)
}

// connDown records one dead connection and notifies the supervisor hook.
func (h *wireHost) connDown(c Conn, err error, torn bool) {
	if torn {
		h.net.Stats.WireTornFrames.Add(1)
	}
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if !closed && h.cfg.OnPeerDown != nil {
		h.cfg.OnPeerDown(c.RemoteAddr(), err)
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
	q        chan frame
	stop     chan struct{}
	stopOnce sync.Once
	rng      *rand.Rand
}

// run is the writer loop. One live conn at a time; any error tears it down
// and the next frame triggers a redial with exponential backoff + jitter.
func (p *wirePeer) run() {
	defer p.host.wg.Done()
	var conn Conn
	var established int
	encBuf := make([]byte, 0, 16<<10)
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for {
		var f frame
		select {
		case <-p.stop:
			return
		case f = <-p.q:
		}
		if conn == nil {
			conn = p.dial(&established)
			if conn == nil {
				return // host closing; queued frames die, resend recovers
			}
		}
		// Encode the frame plus everything else already queued, then flush
		// once: frames-per-flush is the wire's batching ratio.
		frames := 0
		var werr error
		encBuf, werr = p.writeOne(conn, encBuf, f)
		if werr == nil {
			frames++
		drain:
			for {
				select {
				case f2 := <-p.q:
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
		if werr != nil {
			// The conn is gone. Everything already dequeued but unflushed is
			// lost here — and recovered by the cumulative-ack/resend path,
			// which still holds every unacknowledged frame.
			_ = conn.Close()
			conn = nil
			p.host.connDown2(p.addr, werr)
		}
	}
}

// writeOne encodes one frame into scratch and writes it. Encode failures
// (an unregistered payload type, typically) skip the frame and count it;
// they are a programming error, not a connection fault.
func (p *wirePeer) writeOne(conn Conn, scratch []byte, f frame) ([]byte, error) {
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

// connDown2 is connDown for the writer side, where only the address is
// known.
func (h *wireHost) connDown2(addr string, err error) {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if !closed && h.cfg.OnPeerDown != nil {
		h.cfg.OnPeerDown(addr, err)
	}
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
