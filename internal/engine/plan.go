package engine

// Partition plans: the one description of which processor slot owns which
// vertex. Routing reads the current plan through one atomic pointer per
// call, and exactly two places publish the next epoch: a live migration
// (elastic.go), once the moved range is installed at its new owner — the
// publish IS the cutover — and the checkpoint restart (supervisor.go),
// between tearing one incarnation down and building the next, for Reshard's
// new base partition (Section 5.1) and for quarantines. Plans live on the
// Engine, so a restarted loop resumes under the routing in force.

import (
	"math"
	"slices"

	"tornado/internal/stream"
)

// VertexRange is a half-open-ended inclusive range [Lo, Hi] of vertex IDs.
// FullRange covers every vertex.
type VertexRange struct {
	Lo, Hi stream.VertexID
}

// FullRange covers the whole vertex ID space.
func FullRange() VertexRange {
	return VertexRange{Lo: 0, Hi: stream.VertexID(math.MaxUint64)}
}

// Contains reports whether id falls inside the range.
func (r VertexRange) Contains(id stream.VertexID) bool {
	return id >= r.Lo && id <= r.Hi
}

// PlanOverride is one migration's routing delta: vertices inside Range whose
// owner (under every preceding override) is From move to Dest. From < 0
// matches any owner, which is what a plain range migration uses; a scale-in
// uses (FullRange, retiring processor, survivor).
type PlanOverride struct {
	Range VertexRange
	From  int
	Dest  int
}

// PartitionPlan is one epoch of the elastic vertex→processor mapping: the
// configured base partition over BaseN processors, folded through the
// overrides in migration order. Plans are immutable; a migration publishes a
// copy-on-write successor through the engine's atomic pointer.
type PartitionPlan struct {
	// Epoch counts plan publications (0 = the configured base partition).
	Epoch int64
	// BaseN is the processor count the base partition function is evaluated
	// with (Config.Processors, or Reshard's count; slots above it start as
	// spares).
	BaseN int
	// Active holds one state per processor slot (its length is the slot
	// count): 1 owns part of the plan, 0 is a spare (unused or retired by a
	// drain-and-merge), slotQuarantined is out of rotation for good.
	Active []int8
	// Overrides is the fold of every migration published so far, oldest
	// first. Override lists stay short — one entry per surviving migration —
	// so Owner is a tiny linear pass, not a search structure.
	Overrides []PlanOverride
}

// slotQuarantined marks a slot whose processor exceeded its restart budget:
// it owns nothing and is never a spare or a migration destination again.
const slotQuarantined int8 = -1

// basePlan is the base partition over baseN of slots processor slots, no
// overrides: processors 0..baseN-1 active, the rest spares.
func basePlan(baseN, slots int) *PartitionPlan {
	p := &PartitionPlan{BaseN: baseN, Active: make([]int8, slots)}
	for i := 0; i < baseN; i++ {
		p.Active[i] = 1
	}
	return p
}

// Owner resolves a vertex to its processor slot under this plan: the base
// partition, then each override applied in publication order.
func (p *PartitionPlan) Owner(id stream.VertexID, base func(stream.VertexID, int) int) int {
	own := base(id, p.BaseN)
	for _, ov := range p.Overrides {
		if ov.Range.Contains(id) && (ov.From < 0 || ov.From == own) {
			own = ov.Dest
		}
	}
	return own
}

// withMove returns the successor plan with one more override. retire marks
// the From processor inactive (drain-and-merge); Dest always becomes active.
func (p *PartitionPlan) withMove(r VertexRange, from, dest int, retire bool) *PartitionPlan {
	next := p.successor()
	next.Overrides = append(next.Overrides, PlanOverride{Range: r, From: from, Dest: dest})
	if dest >= 0 && dest < len(next.Active) {
		next.Active[dest] = 1
	}
	if retire && from >= 0 && from < len(next.Active) {
		next.Active[from] = 0
	}
	return next
}

// successor returns a copy of p at the next epoch.
func (p *PartitionPlan) successor() *PartitionPlan {
	return &PartitionPlan{Epoch: p.Epoch + 1, BaseN: p.BaseN, Active: slices.Clone(p.Active), Overrides: slices.Clone(p.Overrides)}
}

// withQuarantine returns the successor plan that takes slot q out of
// rotation: whatever q owns moves to the first spare (ScaleOut's choice)
// or, with none left, to the least-loaded active slot (ScaleIn's choice),
// and q turns slotQuarantined. It returns nil when no other slot could take
// q's range.
func (p *PartitionPlan) withQuarantine(q int, load func(int) int) *PartitionPlan {
	next := p.successor()
	if p.Active[q] > 0 {
		dest := slices.Index(p.Active, 0)
		if dest < 0 {
			dest = p.leastLoaded(q, load)
		}
		if dest < 0 {
			return nil
		}
		next = p.withMove(FullRange(), q, dest, false)
	}
	next.Active[q] = slotQuarantined
	return next
}

// leastLoaded returns the active slot other than skip whose load (hosted
// vertices) is smallest, or -1 when there is none.
func (p *PartitionPlan) leastLoaded(skip int, load func(int) int) int {
	dest := -1
	for i, a := range p.Active {
		if i != skip && a > 0 && (dest < 0 || load(i) < load(dest)) {
			dest = i
		}
	}
	return dest
}

// ActiveCount returns the number of active processor slots.
func (p *PartitionPlan) ActiveCount() int {
	n := 0
	for _, a := range p.Active {
		if a > 0 {
			n++
		}
	}
	return n
}

// Quarantined returns the slots the plan marks quarantined, ascending.
func (e *Engine) Quarantined() []int {
	var out []int
	for i, a := range e.plan.Load().Active {
		if a == slotQuarantined {
			out = append(out, i)
		}
	}
	return out
}

// PlanStats is a point-in-time view of the elastic routing state for
// observability and the shell's `partitions` command.
type PlanStats struct {
	// Epoch is the current plan epoch (0 = never changed).
	Epoch int64
	// BaseProcessors / MaxProcessors are the base partition's width and the
	// slot count migrations may scale into.
	BaseProcessors, MaxProcessors int
	// Active flags each slot's plan membership (false for spares and
	// quarantined slots).
	Active []bool
	// Overrides is a copy of the plan's migration fold.
	Overrides []PlanOverride
	// Migrations / MigratedVertices / Aborts are lifetime totals.
	Migrations, MigratedVertices, Aborts int64
}

// PlanStats returns the engine's current elastic routing state.
func (e *Engine) PlanStats() PlanStats {
	p := e.plan.Load()
	s := PlanStats{
		Epoch:            p.Epoch,
		BaseProcessors:   p.BaseN,
		MaxProcessors:    len(p.Active),
		Active:           make([]bool, len(p.Active)),
		Overrides:        append([]PlanOverride(nil), p.Overrides...),
		Migrations:       e.migrations.Load(),
		MigratedVertices: e.migratedVerts.Load(),
		Aborts:           e.migAborts.Load(),
	}
	for i, a := range p.Active {
		s.Active[i] = a > 0
	}
	return s
}

// PlanEpoch returns the current partition-plan epoch.
func (e *Engine) PlanEpoch() int64 { return e.plan.Load().Epoch }
