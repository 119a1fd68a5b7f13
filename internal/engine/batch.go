package engine

// The message plane's unit (DESIGN §8). Senders — processors and the
// ingester — build typed batches themselves and hand each to the transport
// as ONE payload: no message is boxed into an `any`, and the endpoint's lock
// is taken once per frame instead of once per message.

import (
	"sync"

	"tornado/internal/obs/trace"
	"tornado/internal/transport"
)

// msgKind tags one member of a msgBatch.
type msgKind uint8

const (
	kindInput msgKind = iota
	kindActivate
	kindUpdate
	kindPrepare
	kindAck
	kindAdopt
	numKinds
)

// msgBatch holds vertex-addressed messages for one destination processor, by
// value, one slice per kind. Tags is the order they were queued in: replaying
// it, each tag taking the next element of its kind's slice, gives the
// receiver exactly the per-(sender, destination) sequence a single queue of
// boxed messages would. A batch is a window while a sender fills it (any
// length; a processor coalesces updates into it in place) and a frame once
// outbox.ship has cut it to at most MaxBatch messages.
type msgBatch struct {
	Tags      []msgKind
	Inputs    []msgInput
	Activates []msgActivate
	Updates   []msgUpdate
	Prepares  []msgPrepare
	Acks      []msgAck
	Adopts    []msgAdopt
	// Traced is set when a member may carry a sampled trace context, so the
	// untraced majority of batches never walks its members looking for one.
	Traced bool

	// epoch names a processor's window: a producer's coalescing slot
	// (outEdge.qEpoch, qPos) points into Updates while the two are equal.
	epoch uint64
}

// PayloadLen implements transport.Counted: a batch weighs its messages.
func (b *msgBatch) PayloadLen() int { return len(b.Tags) }

// TraceCtx implements trace.Carrier.
func (b *msgBatch) TraceCtx() trace.Context {
	if b.Traced {
		for i := range b.Inputs {
			if c := b.Inputs[i].Ctx; c.Traced() {
				return c
			}
		}
		for i := range b.Updates {
			if c := b.Updates[i].Ctx; c.Traced() {
				return c
			}
		}
	}
	return trace.Context{}
}

func (b *msgBatch) addInput(m msgInput) {
	b.Tags, b.Inputs = append(b.Tags, kindInput), append(b.Inputs, m)
	b.Traced = b.Traced || m.Ctx.Traced()
}

func (b *msgBatch) addActivate(m msgActivate) {
	b.Tags, b.Activates = append(b.Tags, kindActivate), append(b.Activates, m)
}

func (b *msgBatch) addUpdate(m msgUpdate) {
	b.Tags, b.Updates = append(b.Tags, kindUpdate), append(b.Updates, m)
	b.Traced = b.Traced || m.Ctx.Traced()
}

func (b *msgBatch) addPrepare(m msgPrepare) {
	b.Tags, b.Prepares = append(b.Tags, kindPrepare), append(b.Prepares, m)
}

func (b *msgBatch) addAck(m msgAck) {
	b.Tags, b.Acks = append(b.Tags, kindAck), append(b.Acks, m)
}

func (b *msgBatch) addAdopt(m msgAdopt) {
	b.Tags, b.Adopts = append(b.Tags, kindAdopt), append(b.Adopts, m)
}

// reset empties the batch for reuse, dropping the references its members
// held (program values, tuple payloads, adopted states).
func (b *msgBatch) reset() {
	clear(b.Inputs)
	clear(b.Updates)
	clear(b.Adopts)
	b.Tags, b.Inputs, b.Activates = b.Tags[:0], b.Inputs[:0], b.Activates[:0]
	b.Updates, b.Prepares, b.Acks, b.Adopts = b.Updates[:0], b.Prepares[:0], b.Acks[:0], b.Adopts[:0]
	b.Traced = false
}

// cut appends the messages tagged Tags[from:to] to dst; pos holds, per kind,
// how many members earlier cuts took, and is advanced.
func (b *msgBatch) cut(dst *msgBatch, from, to int, pos *[numKinds]int) {
	var n [numKinds]int
	for _, k := range b.Tags[from:to] {
		n[k]++
	}
	dst.Tags = append(dst.Tags, b.Tags[from:to]...)
	dst.Inputs = append(dst.Inputs, b.Inputs[pos[kindInput]:pos[kindInput]+n[kindInput]]...)
	dst.Activates = append(dst.Activates, b.Activates[pos[kindActivate]:pos[kindActivate]+n[kindActivate]]...)
	dst.Updates = append(dst.Updates, b.Updates[pos[kindUpdate]:pos[kindUpdate]+n[kindUpdate]]...)
	dst.Prepares = append(dst.Prepares, b.Prepares[pos[kindPrepare]:pos[kindPrepare]+n[kindPrepare]]...)
	dst.Acks = append(dst.Acks, b.Acks[pos[kindAck]:pos[kindAck]+n[kindAck]]...)
	dst.Adopts = append(dst.Adopts, b.Adopts[pos[kindAdopt]:pos[kindAdopt]+n[kindAdopt]]...)
	for k := range pos {
		pos[k] += n[k]
	}
}

// stage closes the named stage at now for every traced member, restamping it
// in place, and reports whether there was one. Only a batch's owner may call
// it: the sender before the hand-off.
func (b *msgBatch) stage(sp *trace.Tracer, name string, loop, peer uint64, now int64) bool {
	found := false
	for i := range b.Inputs {
		if c := &b.Inputs[i].Ctx; c.Traced() {
			*c, found = sp.Stage(*c, name, loop, trace.NoVertex, peer, now), true
		}
	}
	for i := range b.Updates {
		if c := &b.Updates[i].Ctx; c.Traced() {
			*c, found = sp.Stage(*c, name, loop, trace.NoVertex, peer, now), true
		}
	}
	return found
}

// framePool recycles frames. A sender takes one per frame it ships; the
// receiving processor puts it back after dispatching it — but only on an
// in-process plane (processor.recycle), where the hand-off transfers the only
// reference. A wire's queue and ledger keep the sender's frame alive, so
// there frames are left to the collector.
var framePool = sync.Pool{New: func() any { return new(msgBatch) }}

// outbox is one sender's window: a batch per destination processor, filled in
// place and shipped as frames.
type outbox struct {
	win []*msgBatch
}

func newOutbox(procs int) *outbox {
	o := &outbox{win: make([]*msgBatch, procs)}
	for i := range o.win {
		o.win[i] = new(msgBatch)
	}
	return o
}

// ship hands every non-empty window except skip's (a processor's own, which
// never touches the transport; -1 ships all) to ep, cut into frames of at
// most maxBatch messages, flushes the endpoint and empties the windows. A
// traced member's output-buffer dwell — queued to handed off — closes here.
func (o *outbox) ship(ep *transport.Endpoint, skip, maxBatch int, sp *trace.Tracer, loop uint64) {
	sent := false
	now := int64(0)
	for node, w := range o.win {
		if len(w.Tags) == 0 || node == skip {
			continue
		}
		if w.Traced && now == 0 && sp.Enabled() {
			now = sp.Now()
		}
		var pos [numKinds]int
		for from := 0; from < len(w.Tags); from += maxBatch {
			f := framePool.Get().(*msgBatch)
			w.cut(f, from, min(from+maxBatch, len(w.Tags)), &pos)
			if w.Traced && now != 0 {
				f.Traced = f.stage(sp, trace.StageBatch, loop, uint64(node), now)
			}
			ep.Send(transport.NodeID(node), f)
		}
		w.reset()
		sent = true
	}
	if sent {
		ep.Flush()
	}
}
