package engine

// Wire mode: running the loop's transport over real sockets.
//
// Config.Wire puts the incarnation's Network into ForceLoop wire mode: every
// frame between the loop's processors, master, ingester and supervisor is
// serialized through the CRC32-framed binary codec, crosses a connection
// dialed to the process's own listener (TCP by default, an in-memory wire
// for hermetic tests), and is decoded back before delivery. All protocol
// state stays in-process — what changes is that the message plane now pays,
// and survives, everything a real deployment does: serialization, partial
// writes, torn frames, corrupted bytes, connection loss and reconnection.
// The chaos suites run their crash/recovery schedules on top of this
// substrate, and the socket-level fault API below adds wire faults
// (partition, corruption, latency, loss) to the chaos vocabulary.
//
// Wire faults live on the Engine, not the incarnation: like the frame-level
// drop/dup rates, they survive crash recoveries — a new incarnation's
// connections come up as faulty as the old ones', because real networks do
// not heal to honor a process restart.

import (
	"encoding/gob"
	"fmt"
	"time"

	"tornado/internal/transport"
)

// What the engine hands the transport must be gob-registered to ride the
// wire: the frame of vertex messages and the control messages (the transport
// registers plain scalars; the frame's members, stream.Tuple and
// trace.Context are plain exported data inside it, and program values in
// msgUpdate.Value are registered by RegisterStateType).
func init() {
	gob.Register(&msgBatch{})
	gob.Register(msgFrontier{})
	gob.Register(msgHalt{})
	gob.Register(msgRescan{})
	gob.Register(msgHeartbeat{})
	gob.Register(msgMigFreeze{})
	gob.Register(msgMigState{})
	gob.Register(msgMigShipped{})
	gob.Register(msgMigInstalled{})
	gob.Register(msgMigCutover{})
	gob.Register(msgMigActivate{})
}

// WireSpec configures wire mode (Config.Wire). The zero value of a non-nil
// spec means: TCP on a fresh loopback port each incarnation, no idle
// deadline, default queue depth.
type WireSpec struct {
	// Addr is the TCP listen address (default "127.0.0.1:0" — a fresh port
	// per incarnation; fixed ports risk rebind races during recovery).
	Addr string
	// Mem, when non-nil, replaces TCP with an in-memory wire: the same
	// codec, supervision and fault machinery without sockets (hermetic unit
	// tests).
	Mem *transport.MemWire
	// ReadIdle evicts peer connections silent for this long (0 = never).
	// Size it well above the heartbeat interval: with supervision on,
	// steady-state beats keep healthy connections alive, so only genuinely
	// stuck peers trip it.
	ReadIdle time.Duration
	// QueueLen bounds each peer connection's outbound frame queue
	// (default 1024).
	QueueLen int
}

// Wire-related recovery event kinds (see RecoveryEvent.Kind).
const (
	// EventWireDown records a dropped peer connection (rate-limited to one
	// event per second; the tornado_wire_reconnects counter has the truth).
	EventWireDown = "wire-down"
	// EventWireFault and EventWireHeal bracket injected wire faults
	// (partition, corruption).
	EventWireFault = "wire-fault"
	EventWireHeal  = "wire-heal"
)

// buildWire assembles one incarnation's transport.WireConfig. Called from
// buildIncarnation (caller holds genMu or is New); gen is captured so the
// hooks never need engine locks.
func (e *Engine) buildWire(gen int) *transport.WireConfig {
	ws := e.cfg.Wire
	var (
		ln  transport.Listener
		d   transport.Dialer
		err error
	)
	if ws.Mem != nil {
		ln, err = ws.Mem.Listen("")
		d = ws.Mem.Dialer()
	} else {
		addr := ws.Addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		// A fixed-port rebind can race the dying incarnation's listener
		// through TIME_WAIT-ish states; retry briefly before giving up.
		for attempt := 0; ; attempt++ {
			var tl *transport.TCPListener
			tl, err = transport.ListenTCP(addr)
			if err == nil {
				ln = tl
				break
			}
			if attempt >= 10 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		d = transport.TCPDialer{}
	}
	if err != nil {
		// No listener means no message plane at all: this is a bind/config
		// failure (bad Addr, exhausted fds), not a runtime fault to degrade
		// around.
		panic(fmt.Sprintf("engine: wire listen: %v", err))
	}
	return &transport.WireConfig{
		Listener:  ln,
		Dialer:    d,
		ForceLoop: true,
		Faults:    e.wireFaults,
		ReadIdle:  ws.ReadIdle,
		QueueLen:  ws.QueueLen,
		OnPeerDown: func(addr string, cause error) {
			e.noteWireDown(gen, addr, cause)
		},
		ObserveFlush: func(frames int) {
			if h := e.wireFlushHist; h != nil {
				h.Observe(float64(frames))
			}
		},
	}
}

// noteWireDown records a dropped wire connection in the recovery log, rate
// limited to one event per second — a corruption storm drops connections per
// frame, and the counters already carry the volume.
func (e *Engine) noteWireDown(gen int, addr string, cause error) {
	const minGap = int64(time.Second)
	now := time.Now().UnixNano()
	last := e.lastWireDown.Load()
	if now-last < minGap || !e.lastWireDown.CompareAndSwap(last, now) {
		return
	}
	e.recordEvent(RecoveryEvent{
		Kind:   EventWireDown,
		Proc:   -2,
		Gen:    gen,
		Detail: fmt.Sprintf("%s: %v", addr, cause),
	})
}

// WireAddr returns the bound wire listener address of the current
// incarnation ("" when the engine runs without a wire).
func (e *Engine) WireAddr() string {
	return e.cur().net.WireAddr()
}

// SetWirePartition hard-partitions (or heals) the wire: while set, every
// outbound frame on every connection vanishes. Senders keep everything on
// their resend ledgers, so healing replays the backlog exactly once past the
// ack watermark. No-op without Config.Wire; reports whether a wire exists.
func (e *Engine) SetWirePartition(on bool) bool {
	if e.wireFaults == nil {
		return false
	}
	e.wireFaults.SetPartition(on)
	kind := EventWireHeal
	detail := "partition healed"
	if on {
		kind = EventWireFault
		detail = "partition"
	}
	e.recordEvent(RecoveryEvent{Kind: kind, Proc: -2, Gen: e.Generation(), Detail: detail})
	return true
}

// SetWireCorrupt makes each outbound wire frame suffer a flipped byte with
// the given probability (0 heals). Every corruption becomes a checksum
// failure and a dropped connection on the receive side — never a delivered
// frame. No-op without Config.Wire.
func (e *Engine) SetWireCorrupt(rate float64) bool {
	if e.wireFaults == nil {
		return false
	}
	e.wireFaults.SetCorrupt(rate)
	kind, detail := EventWireFault, fmt.Sprintf("corrupt %.3f", rate)
	if rate <= 0 {
		kind, detail = EventWireHeal, "corruption healed"
	}
	e.recordEvent(RecoveryEvent{Kind: kind, Proc: -2, Gen: e.Generation(), Detail: detail})
	return true
}

// SetWireLoss sets per-frame socket-level drop and duplicate probabilities
// (independent of the frame-level InjectTransportFaults rates, which apply
// before serialization). No-op without Config.Wire.
func (e *Engine) SetWireLoss(drop, dup float64) bool {
	if e.wireFaults == nil {
		return false
	}
	e.wireFaults.SetLoss(drop, dup)
	return true
}

// SetWireLatency adds fixed per-frame latency on the wire (0 clears). No-op
// without Config.Wire.
func (e *Engine) SetWireLatency(d time.Duration) bool {
	if e.wireFaults == nil {
		return false
	}
	e.wireFaults.SetLatency(d)
	return true
}
