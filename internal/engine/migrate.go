package engine

// Processor-side live migration machinery (the coordinator lives in
// elastic.go). A source freezes the moving range, journals traffic for it,
// drains in-flight prepares, ships state, answers post-ship prepares from
// tombstones, and forwards the journal to the new owner at cutover. The
// destination installs shipped state without activating it, then starts it
// when the coordinator confirms the plan flipped.

import (
	"slices"
	"sort"

	"tornado/internal/stream"
	"tornado/internal/transport"
)

// migSource is a source processor's freeze state: set by msgMigFreeze,
// cleared by msgMigCutover (or dropped with the incarnation on abort — the
// journaled inputs were never marked applied, so crash recovery replays
// them from the input journal).
type migSource struct {
	seq        int64
	r          VertexRange
	dest       int
	numSources int
	shipped    bool
	// journal holds vertex-addressed messages (msgInput, msgActivate,
	// msgUpdate, msgAdopt) for migrating vertices in arrival order, tokens
	// still held inside the messages; forwarded to the new owner at cutover.
	journal msgBatch
	// tomb maps each shipped vertex to its iteration at ship time, so
	// prepares arriving after the state left are still answered (the reply
	// is indistinguishable from an ack legally racing a consumer commit).
	tomb map[stream.VertexID]int64
	// slots are the shipped vertices' share slots, freed at cutover.
	slots []int32
}

// migDest is a destination processor's install state: created by the first
// msgMigState of a migration, cleared by msgMigActivate.
type migDest struct {
	seq    int64
	expect int
	got    int
	ids    []stream.VertexID
}

// migrating reports whether id is a frozen-but-still-owned vertex of the
// in-flight migration: traffic for it is journaled. Once the plan flips the
// route check fails and the same traffic bounces to the new owner instead.
func (p *processor) migrating(id stream.VertexID) bool {
	return p.mig != nil && p.mig.r.Contains(id) && p.eng.owner(id) == transport.NodeID(p.idx)
}

// bounce re-routes a vertex-addressed message this processor does not own
// through the current plan (an in-flight frame overtaken by a cutover, or a
// retransmission addressed to a pre-migration owner): it returns the owner's
// window for the handler to forward the message into, or nil when id is this
// processor's. Running before ensure() or touch() is what prevents
// misdirected frames from ghost-creating vertices on the old owner.
func (p *processor) bounce(id stream.VertexID) *msgBatch {
	owner := p.eng.owner(id)
	if owner == transport.NodeID(p.idx) {
		return nil
	}
	p.eng.migBounced.Add(1)
	return p.out.win[owner]
}

func (p *processor) handleMigFreeze(m msgMigFreeze) {
	p.mig = &migSource{seq: m.Seq, r: m.R, dest: m.Dest, numSources: m.NumSources,
		tomb: make(map[stream.VertexID]int64)}
	// Held-back updates addressed to migrating vertices move to the journal
	// now: handleFrontier must never gather into a frozen vertex, and the
	// new owner applies them under its own cap after the hand-off. Oldest
	// iteration first, as handleFrontier would have released them.
	for _, iter := range p.heldIters() {
		msgs := p.holdback[iter]
		keep := msgs[:0]
		for _, u := range msgs {
			if p.migrating(u.To) {
				p.mig.journal.addUpdate(u)
			} else {
				keep = append(keep, u)
			}
		}
		if len(keep) == 0 {
			delete(p.holdback, iter)
		} else {
			p.holdback[iter] = keep
		}
	}
	p.migMaybeShip()
}

// migMaybeShip ships the frozen range once it is drained: no migrating
// vertex is mid-prepare as a producer. Called after the freeze lands and at
// the end of every receive window (a drain completes when the last pending
// commit's ack arrives and the window closes).
func (p *processor) migMaybeShip() {
	mig := p.mig
	if mig == nil || mig.shipped {
		return
	}
	var moving []*vertex
	for id, v := range p.vertices {
		if !p.migrating(id) {
			continue
		}
		if v.preparing() {
			return // still draining
		}
		moving = append(moving, v)
	}
	sort.Slice(moving, func(i, j int) bool { return moving[i].id < moving[j].id })

	// Flush the window's queued vertex messages first so nothing this source
	// already committed can arrive at the destination after the state that
	// reflects it.
	p.flushOut()

	vs := make([]MigVertex, 0, len(moving))
	for _, v := range moving {
		// A shell ships loaded: the destination installs what it receives. It
		// is loaded here, not at the freeze, because a PREPARE can still host
		// a shell in the frozen range until it ships.
		if v.unloaded {
			p.load(v)
		}
		// A queued activation — one still waiting for the frontier —
		// travels as the pending slot itself: drop the entry and release its
		// parked token (the coordinator's floor-0 pin covers the gap until
		// the destination re-schedules it at its own frontier).
		if p.actQ != nil {
			if it, ok := p.actQ.Remove(v.id); ok {
				p.deltaDepth.Add(-1)
				p.tk.Release(it.Token)
			}
		}
		// The records go as they are: the source drops its only reference
		// below, and the destination installs copies.
		vs = append(vs, MigVertex{
			ID:         v.id,
			State:      v.state,
			Out:        v.out,
			In:         v.in,
			JSeqs:      v.jseqs,
			Iter:       v.iter,
			LastCommit: v.lastCommit,
			Progress:   v.progress,
			Dirty:      v.dirty,
			Activated:  v.activated,
			Pending:    v.pending,
			HasPending: v.hasPending,
		})
		mig.tomb[v.id] = v.iter
		mig.slots = append(mig.slots, v.slot)
		if v.dirtyToken >= 0 {
			p.tk.Release(v.dirtyToken)
			v.dirtyToken = -1
		}
		delete(p.vertices, v.id)
		v.capBlocked = false // a capQ entry for it is now void
		// The share slot stays until cutover: a branch fork scanning
		// mid-migration must still see these vertices as part of its seed
		// set on SOME live processor.
	}
	mig.shipped = true
	p.ep.Send(transport.NodeID(mig.dest),
		msgMigState{Seq: mig.seq, Source: p.idx, NumSources: mig.numSources, Vs: vs})
	p.ep.Send(migNode, msgMigShipped{Seq: mig.seq, Source: p.idx, Count: len(vs)})
	p.ep.Flush()
}

// handleMigState installs one source's shipped vertices. Dirty vertices
// re-acquire dirty tokens (the coordinator's pin guarantees the floor has
// not passed their commit iterations), but NOTHING is activated: until the
// plan flips, protocol messages these vertices emit would route back to the
// old owner.
func (p *processor) handleMigState(m msgMigState) {
	if p.migIn == nil || p.migIn.seq != m.Seq {
		p.migIn = &migDest{seq: m.Seq, expect: m.NumSources}
	}
	for _, mv := range m.Vs {
		if old := p.vertices[mv.ID]; old != nil {
			p.unhost(old.slot) // a leftover a PREPARE created racing an earlier hand-off
		}
		v := newVertex(mv.ID, p.eng.cfg.Seed)
		v.state = mv.State
		v.out, v.in, v.jseqs = slices.Clone(mv.Out), slices.Clone(mv.In), slices.Clone(mv.JSeqs)
		for i := range v.out {
			v.out[i].qEpoch = 0 // the source's window epochs mean nothing here
		}
		for i := range v.in {
			if v.in[i].Preparing {
				v.npreparing++
			}
		}
		v.iter = mv.Iter
		v.lastCommit = mv.LastCommit
		v.progress = mv.Progress
		v.activated = mv.Activated
		v.pending, v.hasPending = mv.Pending, mv.HasPending
		p.migIn.ids = append(p.migIn.ids, mv.ID)
		if mv.Dirty {
			// Re-acquire the dirty token the source released at ship,
			// exactly as markDirty would place it.
			v.dirty = true
			v.dirtyToken = p.tk.AcquireFloor(v.lower())
			if v.dirtyToken > v.iter {
				v.iter = v.dirtyToken
			}
		}
		p.host(v)
	}
	p.migIn.got++
	if p.migIn.got >= p.migIn.expect {
		p.ep.Send(migNode, msgMigInstalled{Seq: m.Seq, Count: len(p.migIn.ids)})
		p.ep.Flush()
	}
}

// handleMigCutover releases a source: the new plan epoch is published, so
// the journal forwards in order through window (which now routes the moved
// range to its new owner), tombstones drop, and the frozen range's share
// entries leave the fork-scan surface.
func (p *processor) handleMigCutover(m msgMigCutover) {
	mig := p.mig
	if mig == nil || mig.seq != m.Seq {
		return
	}
	p.mig = nil
	j := &mig.journal
	var pos [numKinds]int
	for _, k := range j.Tags {
		i := pos[k]
		pos[k]++
		switch k {
		case kindInput:
			p.window(routeVertex(j.Inputs[i].Tuple)).addInput(j.Inputs[i])
		case kindActivate:
			p.window(j.Activates[i].To).addActivate(j.Activates[i])
		case kindUpdate:
			p.window(j.Updates[i].To).addUpdate(j.Updates[i])
		case kindAdopt:
			p.window(j.Adopts[i].To).addAdopt(j.Adopts[i])
		}
	}
	p.unhost(mig.slots...)
	p.flushOut()
}

// handleMigActivate starts the installed vertices on the destination: dirty
// ones enter the three-phase protocol, parked delta pendings go through the
// scheduler (significant ones re-queue with fresh tokens, sub-threshold
// ones park — selective activation survives the hand-off). The message
// carries the coordinator's frontier pin, released only after every fresh
// token is acquired.
func (p *processor) handleMigActivate(m msgMigActivate) {
	in := p.migIn
	if in != nil && in.seq == m.Seq {
		p.migIn = nil
		for _, id := range in.ids {
			v := p.vertices[id]
			if v == nil {
				continue
			}
			if v.dirty {
				p.maybeStart(v)
			} else if p.dp != nil && v.hasPending {
				p.deltaSchedule(v, p.tk.AcquireFloor(v.lower()))
			}
		}
	}
	p.tk.Release(m.Token)
}
