// Socket-level fault injection: a Conn wrapper that mangles outbound
// traffic the way a real flaky link would — added latency, silent drops,
// duplicated frames, flipped bytes, hard partitions and slow-drip writes.
// The wire host wraps every dialed conn with one shared WireFaults, so the
// chaos API can flip faults on a running topology; inbound traffic is the
// remote side's outbound, so wrapping dialers covers every direction of a
// symmetric deployment.
//
// Byte corruption is the interesting one: the flipped byte invalidates the
// frame CRC, the receiving reader counts a checksum failure and drops the
// connection rather than delivering garbage, and the wire ledger re-delivers
// everything unacknowledged over the next conn — the end-to-end defense the
// codec fuzz target and the wire chaos soaks pin.
package transport

import (
	"math/rand"
	"sync"
	"time"
)

// WireFaults is the shared, runtime-adjustable fault state of a wire. All
// methods are safe for concurrent use; the zero value injects nothing.
type WireFaults struct {
	mu        sync.Mutex
	rng       *rand.Rand
	latency   time.Duration
	dropRate  float64
	dupRate   float64
	corrupt   float64
	slowDrip  time.Duration
	partition bool
}

// NewWireFaults returns a fault state drawing from the given seed.
func NewWireFaults(seed int64) *WireFaults {
	return &WireFaults{rng: rand.New(rand.NewSource(seed))}
}

// SetLatency adds d of delay before every frame write (0 clears).
func (w *WireFaults) SetLatency(d time.Duration) { w.mu.Lock(); w.latency = d; w.mu.Unlock() }

// SetLoss makes each outbound frame dropped with probability drop and
// duplicated with probability dup.
func (w *WireFaults) SetLoss(drop, dup float64) {
	w.mu.Lock()
	w.dropRate, w.dupRate = drop, dup
	w.mu.Unlock()
}

// SetCorrupt flips one byte of each outbound frame with probability rate.
// The receiver's CRC check turns every corruption into a dropped connection,
// never a delivered frame.
func (w *WireFaults) SetCorrupt(rate float64) { w.mu.Lock(); w.corrupt = rate; w.mu.Unlock() }

// SetSlowDrip stretches every frame write by d (a pathologically slow
// sender; pair with a read-idle deadline on the receiver to exercise
// stuck-peer eviction). 0 clears.
func (w *WireFaults) SetSlowDrip(d time.Duration) { w.mu.Lock(); w.slowDrip = d; w.mu.Unlock() }

// SetPartition hard-partitions the wire: every outbound frame vanishes
// until the partition heals. The sending hosts' ledgers keep every frame,
// so healing replays everything past the ack watermark exactly once.
func (w *WireFaults) SetPartition(on bool) { w.mu.Lock(); w.partition = on; w.mu.Unlock() }

// Partitioned reports the current partition state.
func (w *WireFaults) Partitioned() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.partition
}

// plan draws the per-frame fault decisions in one critical section.
type faultPlan struct {
	latency  time.Duration
	slowDrip time.Duration
	drop     bool
	dup      bool
	corrupt  bool
}

func (w *WireFaults) plan() faultPlan {
	w.mu.Lock()
	defer w.mu.Unlock()
	p := faultPlan{latency: w.latency, slowDrip: w.slowDrip}
	if w.partition {
		p.drop = true
		return p
	}
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(1))
	}
	if w.dropRate > 0 && w.rng.Float64() < w.dropRate {
		p.drop = true
	}
	if w.dupRate > 0 && w.rng.Float64() < w.dupRate {
		p.dup = true
	}
	if w.corrupt > 0 && w.rng.Float64() < w.corrupt {
		p.corrupt = true
	}
	return p
}

// corruptByte picks the flip position deterministically from the rng.
func (w *WireFaults) corruptByte(n int) (int, byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rng == nil {
		w.rng = rand.New(rand.NewSource(1))
	}
	return w.rng.Intn(n), byte(1 << w.rng.Intn(8))
}

// FaultConn wraps a Conn with a WireFaults policy. Reads pass through
// untouched (the remote side's faults shape what arrives).
type FaultConn struct {
	Conn
	Faults *WireFaults
}

// WriteFrame implements Conn, applying the fault plan to the outbound
// frame. Corruption operates on a copy: the caller's buffer stays pristine.
func (f *FaultConn) WriteFrame(frame []byte) error {
	p := f.Faults.plan()
	if p.latency > 0 {
		time.Sleep(p.latency)
	}
	if p.slowDrip > 0 {
		// A slow-drip sender holds the line busy far longer than the frame
		// warrants; the receiver's idle deadline is the defense.
		time.Sleep(p.slowDrip)
	}
	if p.drop {
		return nil // vanished in flight; resend recovers
	}
	if p.corrupt && len(frame) > 0 {
		mangled := make([]byte, len(frame))
		copy(mangled, frame)
		at, bit := f.Faults.corruptByte(len(mangled))
		mangled[at] ^= bit
		frame = mangled
	}
	if err := f.Conn.WriteFrame(frame); err != nil {
		return err
	}
	if p.dup {
		return f.Conn.WriteFrame(frame)
	}
	return nil
}

// FaultDialer wraps every dialed conn with the shared fault state.
type FaultDialer struct {
	Dialer
	Faults *WireFaults
}

// Dial implements Dialer.
func (d FaultDialer) Dial(addr string) (Conn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &FaultConn{Conn: c, Faults: d.Faults}, nil
}
