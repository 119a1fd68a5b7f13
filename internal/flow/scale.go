package flow

// ScalePlanner turns per-partition load accounting plus a pressure sample
// into elastic scaling decisions: split a hot partition onto a spare
// processor when sustained pressure concentrates there, drain-and-merge a
// scaled-out partition when the system has been calm long enough. The
// planner is pure bookkeeping — it never touches the engine; the caller
// samples loads and pressure, feeds Decide, and executes the returned
// action (a repartition: Engine.ScaleOut or ScaleIn) itself.

// PartitionLoad is one processor slot's load sample as the planner sees it.
// The engine exposes the same shape (engine.PartitionLoad); flow cannot
// import engine, so the caller copies fields across.
type PartitionLoad struct {
	Proc     int
	Active   bool // currently owns part of the partition plan
	Scaled   bool // added by a split (merge candidates; base slots never merge)
	Vertices int
	// UpdateRate and CommitRate are per-second message/commit rates over the
	// caller's sampling window.
	UpdateRate float64
	CommitRate float64
	// QueueDepth is the slot's delta activation-queue depth.
	QueueDepth int64
}

// ScaleAction is what the planner wants done.
type ScaleAction int

const (
	ScaleNone ScaleAction = iota
	// ScaleSplit: split partition Proc onto a spare slot.
	ScaleSplit
	// ScaleMerge: drain partition Proc back onto the remaining slots.
	ScaleMerge
)

func (a ScaleAction) String() string {
	switch a {
	case ScaleSplit:
		return "split"
	case ScaleMerge:
		return "merge"
	default:
		return "none"
	}
}

// Decision is one planner verdict.
type Decision struct {
	Action ScaleAction
	Proc   int // the partition to split or merge
}

// Planner hysteresis constants.
const (
	// splitAbove is the pressure (0..1 utilization of the tightest bounded
	// queue) at or above which a sample counts as split-worthy.
	splitAbove = 0.85
	// mergeBelow is the pressure at or below which a sample counts as calm
	// enough to merge. The dead band between the two keeps the planner from
	// splitting and merging around a single threshold.
	mergeBelow = 0.5
	// mergeAfter is how many consecutive calm samples with a starved
	// scaled-out partition arm a merge: scale in far more cautiously than
	// out.
	mergeAfter = 8
	// minVertices is the minimum vertex count a partition must host to be
	// split; splitting a tiny partition just moves the hotspot.
	minVertices = 16
)

// ScalePlannerOptions tunes the planner's split trigger. Zero values pick
// conservative defaults.
type ScalePlannerOptions struct {
	// SplitAfter is how many consecutive pressured-and-concentrated samples
	// arm a split (default 3).
	SplitAfter int
	// Concentration is the minimum ratio of the hottest partition's update
	// rate to the mean across active partitions for the heat to count as
	// concentrated — splitting helps a skewed partition, not a uniformly
	// overloaded system (default 2.0).
	Concentration float64
}

func (o *ScalePlannerOptions) fill() {
	if o.SplitAfter <= 0 {
		o.SplitAfter = 3
	}
	if o.Concentration <= 0 {
		o.Concentration = 2.0
	}
}

// ScalePlanner accumulates hysteresis across Decide calls. Not safe for
// concurrent use; the caller's sampling loop owns it.
type ScalePlanner struct {
	opts ScalePlannerOptions
	hot  int // consecutive split-worthy samples
	idle int // consecutive merge-worthy samples
}

// NewScalePlanner returns a planner with the given (filled) options.
func NewScalePlanner(opts ScalePlannerOptions) *ScalePlanner {
	opts.fill()
	return &ScalePlanner{opts: opts}
}

// Decide takes one sample: the current pressure (0..1 utilization of the
// tightest bounded queue), per-slot loads, and whether a spare slot exists.
// It returns at most one action; the caller should re-sample from scratch
// after executing it (Reset is called internally on every non-none
// decision).
func (p *ScalePlanner) Decide(pressure float64, loads []PartitionLoad, spareAvailable bool) Decision {
	hottest, coldest := -1, -1
	var sum float64
	active := 0
	for i, l := range loads {
		if !l.Active {
			continue
		}
		active++
		sum += l.UpdateRate
		if hottest < 0 || l.UpdateRate > loads[hottest].UpdateRate {
			hottest = i
		}
		if l.Scaled && (coldest < 0 || l.UpdateRate < loads[coldest].UpdateRate) {
			coldest = i
		}
	}
	if active == 0 {
		return Decision{}
	}
	mean := sum / float64(active)

	// Split: sustained pressure whose update traffic concentrates in one
	// sufficiently large partition, with somewhere to put the other half.
	splitWorthy := pressure >= splitAbove && spareAvailable &&
		hottest >= 0 && loads[hottest].Vertices >= minVertices &&
		(active == 1 || (mean > 0 && loads[hottest].UpdateRate >= p.opts.Concentration*mean))
	if splitWorthy {
		p.idle = 0
		p.hot++
		if p.hot >= p.opts.SplitAfter {
			p.Reset()
			return Decision{Action: ScaleSplit, Proc: loads[hottest].Proc}
		}
		return Decision{}
	}
	p.hot = 0

	// Merge: pressure is low and a scaled-out partition has gone quiet
	// relative to the mean — keep draining the quietest one.
	mergeWorthy := pressure <= mergeBelow && coldest >= 0 &&
		loads[coldest].UpdateRate <= mean/p.opts.Concentration
	if mergeWorthy {
		p.idle++
		if p.idle >= mergeAfter {
			p.Reset()
			return Decision{Action: ScaleMerge, Proc: loads[coldest].Proc}
		}
		return Decision{}
	}
	p.idle = 0
	return Decision{}
}

// Reset clears the planner's hysteresis counters (called after every
// decision, and by callers after a manual scaling operation).
func (p *ScalePlanner) Reset() {
	p.hot, p.idle = 0, 0
}
