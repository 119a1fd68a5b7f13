package transport

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- codec ---

func TestWireCodecRoundTrip(t *testing.T) {
	pc := GobPayloadCodec{}
	cases := []frame{
		{from: 1, to: 2, seq: 7, payloads: []any{"hello", int64(42), []byte{1, 2, 3}}},
		{from: 3, to: 4, seq: 9, ack: true, ackUpTo: 8},
		{from: 0, to: 1, seq: 0, urgent: true, traced: true, payloads: []any{"hb"}},
		{from: 5, to: 6, seq: 1, payloads: []any{}},
	}
	var buf []byte
	for i, want := range cases {
		var err error
		buf, err = encodeFrame(buf[:0], &want, pc)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := decodeFrame(buf, pc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.from != want.from || got.to != want.to || got.seq != want.seq ||
			got.ack != want.ack || got.ackUpTo != want.ackUpTo ||
			got.urgent != want.urgent || got.traced != want.traced {
			t.Fatalf("case %d: header round-trip: got %+v want %+v", i, got, want)
		}
		if len(got.payloads) != len(want.payloads) {
			t.Fatalf("case %d: payload count %d want %d", i, len(got.payloads), len(want.payloads))
		}
		if got.msgs != len(want.payloads) { // the decoder recounts; these payloads weigh one each
			t.Fatalf("case %d: decoded frame weighs %d messages; want %d", i, got.msgs, len(want.payloads))
		}
		for j := range want.payloads {
			switch w := want.payloads[j].(type) {
			case []byte:
				g, ok := got.payloads[j].([]byte)
				if !ok || string(g) != string(w) {
					t.Fatalf("case %d payload %d: got %#v want %#v", i, j, got.payloads[j], w)
				}
			default:
				if got.payloads[j] != w {
					t.Fatalf("case %d payload %d: got %#v want %#v", i, j, got.payloads[j], w)
				}
			}
		}
	}
}

// Every single-bit flip anywhere in a valid encoding must fail decode — the
// CRC spans everything after itself, and the CRC bytes themselves then
// disagree with the recomputation.
func TestWireCodecRejectsBitFlips(t *testing.T) {
	pc := GobPayloadCodec{}
	f := frame{from: 1, to: 2, seq: 3, payloads: []any{"payload", int64(-1)}}
	enc, err := encodeFrame(nil, &f, pc)
	if err != nil {
		t.Fatal(err)
	}
	mangled := make([]byte, len(enc))
	for at := 0; at < len(enc); at++ {
		for bit := 0; bit < 8; bit++ {
			copy(mangled, enc)
			mangled[at] ^= 1 << bit
			if _, err := decodeFrame(mangled, pc); err == nil {
				t.Fatalf("flip byte %d bit %d: decode accepted corrupt frame", at, bit)
			}
		}
	}
	// And truncations at every length.
	for n := 0; n < len(enc); n++ {
		if _, err := decodeFrame(enc[:n], pc); err == nil {
			t.Fatalf("truncation to %d bytes: decode accepted torn frame", n)
		}
	}
}

func TestWireCodecBufferReuse(t *testing.T) {
	pc := GobPayloadCodec{}
	buf := make([]byte, 0, 4096)
	for i := 0; i < 100; i++ {
		f := frame{from: 1, to: 2, seq: uint64(i), payloads: []any{int64(i)}}
		out, err := encodeFrame(buf[:0], &f, pc)
		if err != nil {
			t.Fatal(err)
		}
		g, err := decodeFrame(out, pc)
		if err != nil {
			t.Fatal(err)
		}
		if g.seq != uint64(i) || g.payloads[0] != int64(i) {
			t.Fatalf("iteration %d: round-trip mismatch: %+v", i, g)
		}
		buf = out
	}
}

// --- wired networks ---

// memWireNet builds a Network listening on the shared MemWire.
func memWireNet(t *testing.T, mw *MemWire, addr string, cfg WireConfig, opts Options) *Network {
	t.Helper()
	ln, err := mw.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = ln
	cfg.Dialer = mw.Dialer()
	opts.Wire = &cfg
	return NewNetwork(opts)
}

// collect receives n payloads and asserts each expected int arrives exactly
// once (the transport's exactly-once-to-app guarantee over a lossy wire).
func collect(t *testing.T, ep *Endpoint, n int) {
	t.Helper()
	seen := make(map[int]bool, n)
	for len(seen) < n {
		env, ok := ep.Recv()
		if !ok {
			t.Fatalf("endpoint closed after %d/%d distinct payloads", len(seen), n)
		}
		v, ok := env.Payload.(int)
		if !ok {
			t.Fatalf("unexpected payload %#v", env.Payload)
		}
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
	}
}

func TestWireForceLoopDelivery(t *testing.T) {
	mw := NewMemWire()
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true}, Options{ResendAfter: 20 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const msgs = 200
	go func() {
		for i := 0; i < msgs; i++ {
			a.Send(2, i)
		}
	}()
	collect(t, b, msgs)
	if n.Stats.WireTxFrames.Value() == 0 || n.Stats.WireRxFrames.Value() == 0 {
		t.Fatalf("ForceLoop moved no wire frames: tx=%d rx=%d",
			n.Stats.WireTxFrames.Value(), n.Stats.WireRxFrames.Value())
	}
	if n.Stats.WireTxBytes.Value() == 0 || n.Stats.WireRxBytes.Value() == 0 {
		t.Fatalf("wire byte counters empty: tx=%d rx=%d",
			n.Stats.WireTxBytes.Value(), n.Stats.WireRxBytes.Value())
	}
}

func TestWireForceLoopOrderPreserved(t *testing.T) {
	mw := NewMemWire()
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true}, Options{ResendAfter: 50 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const msgs = 100
	go func() {
		for i := 0; i < msgs; i++ {
			a.Send(2, i)
		}
	}()
	// In-order per sender pair survives serialization (single peer queue,
	// single conn, in-order dedup fold on the receiver).
	for i := 0; i < msgs; i++ {
		env, ok := b.Recv()
		if !ok || env.Payload != i {
			t.Fatalf("message %d: got %+v, %v", i, env, ok)
		}
	}
}

func TestWireTCPRemoteDelivery(t *testing.T) {
	lnA, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr(), lnB.Addr()
	resolve := func(self string) func(NodeID) string {
		return func(id NodeID) string {
			switch id {
			case 1:
				return addrA
			case 2:
				return addrB
			}
			_ = self
			return ""
		}
	}
	netA := NewNetwork(Options{
		ResendAfter: 20 * time.Millisecond,
		Wire:        &WireConfig{Listener: lnA, Dialer: TCPDialer{}, Resolve: resolve(addrA)},
	})
	defer netA.Close()
	netB := NewNetwork(Options{
		ResendAfter: 20 * time.Millisecond,
		Wire:        &WireConfig{Listener: lnB, Dialer: TCPDialer{}, Resolve: resolve(addrB)},
	})
	defer netB.Close()

	a := netA.Register(1)
	b := netB.Register(2)
	const msgs = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			a.Send(2, i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			b.Send(1, i)
		}
	}()
	collect(t, b, msgs)
	collect(t, a, msgs)
	wg.Wait()
	if netA.WireAddr() != addrA {
		t.Fatalf("WireAddr = %q want %q", netA.WireAddr(), addrA)
	}
}

// A corrupting wire: every corrupted frame must surface as a checksum
// failure and a dropped conn — never as a delivered frame — and the
// supervised reconnect plus the resend ledger must still get every payload
// through exactly once.
func TestWireCorruptionTriggersReconnectNoLoss(t *testing.T) {
	mw := NewMemWire()
	faults := NewWireFaults(42)
	faults.SetCorrupt(0.05)
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true, Faults: faults},
		Options{ResendAfter: 10 * time.Millisecond, DropSeed: 7})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const msgs = 400
	go func() {
		for i := 0; i < msgs; i++ {
			a.Send(2, i)
		}
	}()
	collect(t, b, msgs)
	if n.Stats.WireChecksumFailures.Value() == 0 {
		t.Fatal("corrupting wire produced no checksum failures")
	}
	if n.Stats.WireReconnects.Value() == 0 {
		t.Fatal("dropped conns produced no reconnects")
	}
}

// A hard partition mid-stream: frames vanish while it holds, and healing
// replays everything past the ack watermark exactly once.
func TestWirePartitionHealNoLossNoDup(t *testing.T) {
	mw := NewMemWire()
	faults := NewWireFaults(1)
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true, Faults: faults},
		Options{ResendAfter: 10 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	const msgs = 300
	go func() {
		for i := 0; i < msgs; i++ {
			if i == msgs/3 {
				faults.SetPartition(true)
			}
			if i == 2*msgs/3 {
				faults.SetPartition(false)
			}
			a.Send(2, i)
		}
	}()
	collect(t, b, msgs)
}

// An idle peer connection is evicted by the read deadline and the next frame
// redials transparently.
func TestWireIdleEviction(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var downs atomic.Int64
	n := NewNetwork(Options{
		ResendAfter: 20 * time.Millisecond,
		Wire: &WireConfig{
			Listener:  ln,
			Dialer:    TCPDialer{},
			ForceLoop: true,
			ReadIdle:  50 * time.Millisecond,
			OnPeerDown: func(addr string, err error) {
				downs.Add(1)
			},
		},
	})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, 1)
	if env, ok := b.Recv(); !ok || env.Payload != 1 {
		t.Fatalf("first delivery: %+v, %v", env, ok)
	}
	// Let the inbound conn idle out, then send again: the writer's conn was
	// severed server-side, so the write fails and the supervisor redials.
	deadline := time.Now().Add(5 * time.Second)
	for downs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle eviction never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.Send(2, 2)
	if env, ok := b.Recv(); !ok || env.Payload != 2 {
		t.Fatalf("post-eviction delivery: %+v, %v", env, ok)
	}
}

// Unresolvable destinations are shed and counted, not silently leaked or
// blocked on.
func TestWireUnroutableShed(t *testing.T) {
	mw := NewMemWire()
	n := memWireNet(t, mw, "", WireConfig{Resolve: func(NodeID) string { return "" }},
		Options{ResendAfter: 0})
	defer n.Close()
	a := n.Register(1)
	a.Send(99, "void")
	waitCounter(t, &n.Stats.WireShed, 1)
}

// ForceLoop keeps Kill/Recover partition semantics: frames to a killed
// endpoint cross the wire but are not delivered, and recovery replays them.
func TestWireForceLoopKillRecover(t *testing.T) {
	mw := NewMemWire()
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true},
		Options{ResendAfter: 10 * time.Millisecond})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	n.Kill(2)
	const msgs = 50
	go func() {
		for i := 0; i < msgs; i++ {
			a.Send(2, i)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	n.Recover(2)
	collect(t, b, msgs)
}

func waitCounter(t *testing.T, c interface{ Value() int64 }, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter stuck at %d, want >= %d", c.Value(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Encode failures (unregistered payload type) are counted and skipped — the
// connection survives and later frames still flow.
func TestWireEncodeErrorSkipsFrame(t *testing.T) {
	type unregistered struct{ X int }
	mw := NewMemWire()
	n := memWireNet(t, mw, "", WireConfig{ForceLoop: true},
		Options{ResendAfter: 0})
	defer n.Close()
	a := n.Register(1)
	b := n.Register(2)
	a.Send(2, unregistered{X: 1})
	waitCounter(t, &n.Stats.WireEncodeErrors, 1)
	a.Send(2, 7)
	if env, ok := b.Recv(); !ok || env.Payload != 7 {
		t.Fatalf("delivery after encode error: %+v, %v", env, ok)
	}
}

func TestTCPConnRejectsOversizedPrefix(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.ReadFrame(nil)
		done <- err
	}()
	c, err := (TCPDialer{}).Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A hostile length prefix (4GB frame) must be rejected without
	// allocation. Write the raw prefix through the conn's own buffer by
	// claiming a giant frame: WriteFrame refuses it locally, so poke the
	// bytes in via a tiny frame whose *content* is irrelevant — instead use
	// the raw net.Conn path: encode prefix manually.
	tc := c.(*tcpConn)
	if _, err := tc.c.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if err == nil {
		t.Fatal("oversized prefix accepted")
	}
	if !strings.Contains(err.Error(), "length prefix") {
		t.Fatalf("unexpected error: %v", err)
	}
}
