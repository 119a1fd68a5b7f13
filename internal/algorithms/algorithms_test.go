package algorithms

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"tornado/internal/datasets"
	"tornado/internal/engine"
	"tornado/internal/storage"
	"tornado/internal/stream"
)

const waitFor = 30 * time.Second

func newEngine(t *testing.T, prog engine.Program, procs int, bound int64) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Config{
		Processors: procs,
		DelayBound: bound,
		Kind:       engine.MainLoop,
		LoopID:     storage.MainLoop,
		Store:      storage.NewMVCCStore(),
		Program:    prog,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Stop)
	return e
}

func runToQuiesce(t *testing.T, e *engine.Engine, tuples []stream.Tuple) {
	t.Helper()
	e.IngestAll(tuples)
	if err := e.WaitQuiesce(waitFor); err != nil {
		t.Fatal(err)
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	tuples := datasets.PowerLawGraph(150, 3, 5)
	for _, bound := range []int64{1, 1 << 40} {
		t.Run(fmt.Sprintf("B=%d", bound), func(t *testing.T) {
			e := newEngine(t, SSSP{Source: 0}, 4, bound)
			runToQuiesce(t, e, tuples)
			got, err := Distances(e)
			if err != nil {
				t.Fatal(err)
			}
			want := RefSSSP(tuples, 0, 64)
			for v, w := range want {
				if g, ok := got[v]; ok && g != w {
					t.Fatalf("vertex %d: %d vs reference %d", v, g, w)
				} else if !ok && w != Unreachable && v != 0 {
					t.Fatalf("vertex %d missing (want %d)", v, w)
				}
			}
		})
	}
}

func TestSSSPWithRemovals(t *testing.T) {
	tuples := datasets.WithRemovals(datasets.PowerLawGraph(100, 3, 9), 0.3, 4)
	e := newEngine(t, SSSP{Source: 0}, 3, 16)
	runToQuiesce(t, e, tuples)
	got, err := Distances(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefSSSP(tuples, 0, 64)
	for v, w := range want {
		if g, ok := got[v]; ok && g != w {
			t.Fatalf("vertex %d: %d vs reference %d", v, g, w)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 11)
	for _, bound := range []int64{1, 1 << 40} {
		t.Run(fmt.Sprintf("B=%d", bound), func(t *testing.T) {
			prog := PageRank{Epsilon: 1e-7}
			e := newEngine(t, prog, 4, bound)
			runToQuiesce(t, e, tuples)
			got, err := Ranks(e)
			if err != nil {
				t.Fatal(err)
			}
			want := RefPageRank(tuples, 0.85, 1e-12)
			for v, w := range want {
				g, ok := got[v]
				if !ok {
					t.Fatalf("vertex %d missing from ranks", v)
				}
				// The epsilon-quiesced asynchronous fixed point sits within
				// an epsilon-ball (amplified by in-degree) of the true one.
				if math.Abs(g-w) > 1e-3*math.Max(1, w) {
					t.Fatalf("vertex %d: rank %.8f vs reference %.8f", v, g, w)
				}
			}
		})
	}
}

func TestPageRankIncrementalEdges(t *testing.T) {
	tuples := datasets.PowerLawGraph(80, 3, 13)
	half := len(tuples) / 2
	prog := PageRank{Epsilon: 1e-7}
	e := newEngine(t, prog, 3, 8)
	runToQuiesce(t, e, tuples[:half])
	runToQuiesce(t, e, tuples[half:])
	got, err := Ranks(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefPageRank(tuples, 0.85, 1e-12)
	for v, w := range want {
		if g, ok := got[v]; ok && math.Abs(g-w) > 1e-3*math.Max(1, w) {
			t.Fatalf("vertex %d: rank %.8f vs reference %.8f", v, g, w)
		}
	}
}

// TestPageRankCoarseMainTightBranch demonstrates the paper's Section 3.2
// split between the approximation g and the exact method f: the main loop
// runs PageRank with a coarse tolerance (cheap, adapts fast), and the branch
// loop overrides the program with a tight tolerance and re-activates every
// vertex, iterating the snapshot to the precise fixed point.
func TestPageRankCoarseMainTightBranch(t *testing.T) {
	tuples := datasets.PowerLawGraph(120, 3, 207)
	coarse := PageRank{Epsilon: 5e-2}
	tight := PageRank{Epsilon: 1e-7}
	e := newEngine(t, coarse, 3, 64)
	runToQuiesce(t, e, tuples)

	want := RefPageRank(tuples, 0.85, 1e-12)
	coarseRanks, err := Ranks(e)
	if err != nil {
		t.Fatal(err)
	}
	coarseErr := maxRankError(coarseRanks, want)

	br, _, err := e.ForkBranch(storage.LoopID(1), func(cfg *engine.Config) {
		cfg.Program = tight // the branch runs the exact method f
	}, func(br *engine.Engine) {
		// Refine everywhere: re-activate every snapshot vertex under f.
		if err := br.ActivateStored(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	tightRanks, err := Ranks(br)
	if err != nil {
		t.Fatal(err)
	}
	tightErr := maxRankError(tightRanks, want)
	if tightErr > 1e-3 {
		t.Fatalf("branch fixed point error %v; want < 1e-3", tightErr)
	}
	if tightErr > coarseErr/5 {
		t.Fatalf("branch (%v) did not clearly refine the coarse approximation (%v)", tightErr, coarseErr)
	}
}

func maxRankError(got, want map[stream.VertexID]float64) float64 {
	worst := 0.0
	for v, w := range want {
		if d := math.Abs(got[v] - w); d > worst {
			worst = d
		}
	}
	return worst
}

func TestConnCompMatchesReference(t *testing.T) {
	tuples := Symmetrize(datasets.PowerLawGraph(150, 2, 17))
	e := newEngine(t, ConnComp{}, 4, 32)
	runToQuiesce(t, e, tuples)
	got, err := Labels(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefConnComp(tuples)
	for v, w := range want {
		g, ok := got[v]
		if !ok {
			t.Fatalf("vertex %d missing from labels", v)
		}
		if g != w {
			t.Fatalf("vertex %d: label %d vs reference %d", v, g, w)
		}
	}
}

func TestConnCompMerge(t *testing.T) {
	// Two chains merge into one component when a bridge edge arrives.
	a := Symmetrize([]stream.Tuple{stream.AddEdge(1, 1, 2), stream.AddEdge(2, 2, 3)})
	b := Symmetrize([]stream.Tuple{stream.AddEdge(3, 10, 11), stream.AddEdge(4, 11, 12)})
	e := newEngine(t, ConnComp{}, 2, 8)
	runToQuiesce(t, e, append(a, b...))
	got, _ := Labels(e)
	if got[3] != 1 || got[12] != 10 {
		t.Fatalf("before bridge: labels %v", got)
	}
	runToQuiesce(t, e, Symmetrize([]stream.Tuple{stream.AddEdge(5, 3, 10)}))
	got, _ = Labels(e)
	for _, v := range []stream.VertexID{1, 2, 3, 10, 11, 12} {
		if got[v] != 1 {
			t.Fatalf("after bridge: vertex %d has label %d; want 1", v, got[v])
		}
	}
}

func kmFixture(seed int64) (KMeans, []datasets.Point, []datasets.Point) {
	points, _ := datasets.GaussianMixture(600, 3, 4, 0.5, seed)
	// Deterministic, well-separated initial guesses: three spread points.
	inits := []datasets.Point{points[0], points[1], points[2]}
	prog := KMeans{CentroidBase: 0, BlockBase: 100, K: 3, InitialCenters: inits, Epsilon: 1e-9}
	return prog, points, inits
}

func TestKMeansMatchesLloyd(t *testing.T) {
	prog, points, inits := kmFixture(3)
	const blocks = 4
	e := newEngine(t, prog, 3, 64)
	runToQuiesce(t, e, KMeansEdges(prog, blocks, 1))
	runToQuiesce(t, e, datasets.PointStream(points, prog.BlockBase, blocks))
	got, err := prog.Centers(e)
	if err != nil {
		t.Fatal(err)
	}
	want := RefKMeans(points, inits, 1e-9, 1000)
	// Compare objective values: async order may settle in a different but
	// equally good optimum; for well separated data they coincide.
	gotObj := KMeansObjective(points, got)
	wantObj := KMeansObjective(points, want)
	if math.Abs(gotObj-wantObj) > 0.01*wantObj+1e-9 {
		t.Fatalf("objective %v vs Lloyd %v", gotObj, wantObj)
	}
}

func TestKMeansStreamingMovesCentroids(t *testing.T) {
	prog, points, _ := kmFixture(5)
	const blocks = 3
	e := newEngine(t, prog, 2, 16)
	runToQuiesce(t, e, KMeansEdges(prog, blocks, 1))
	runToQuiesce(t, e, datasets.PointStream(points[:300], prog.BlockBase, blocks))
	first, err := prog.Centers(e)
	if err != nil {
		t.Fatal(err)
	}
	runToQuiesce(t, e, datasets.PointStream(points[300:], prog.BlockBase, blocks))
	second, err := prog.Centers(e)
	if err != nil {
		t.Fatal(err)
	}
	wantObj := KMeansObjective(points, RefKMeans(points, [](datasets.Point){points[0], points[1], points[2]}, 1e-9, 1000))
	gotObj := KMeansObjective(points, second)
	if math.Abs(gotObj-wantObj) > 0.05*wantObj+1e-9 {
		t.Fatalf("streaming objective %v vs Lloyd %v (first half gave %v)", gotObj, wantObj, KMeansObjective(points, first))
	}
}

func sgdFixture(loss LossKind) (SGD, []datasets.Instance, []float64) {
	var ins []datasets.Instance
	var wTrue []float64
	if loss == Hinge {
		ins, wTrue = datasets.LinearlySeparable(800, 8, 0.02, 21)
	} else {
		// Logistic labels are sampled from the model's probability, so even
		// the ground-truth weights misclassify the inherently noisy cases.
		ins, wTrue = datasets.DriftingLogistic(800, 8, 4, 0, 23)
	}
	prog := SGD{
		ParamVertex: 0, SamplerBase: 10, Samplers: 4, Dim: 8,
		Loss: loss, Lambda: 1e-4, Eta0: 0.1, ReservoirCap: 64, RoundLimit: 300, Tol: 1e-4,
	}
	return prog, ins, wTrue
}

func TestSGDMainLoopLearns(t *testing.T) {
	for _, loss := range []LossKind{Hinge, Logistic} {
		t.Run(loss.String(), func(t *testing.T) {
			prog, ins, wTrue := sgdFixture(loss)
			e := newEngine(t, prog, 3, 32)
			runToQuiesce(t, e, SGDEdges(prog, 1))
			runToQuiesce(t, e, datasets.InstanceStream(ins, prog.SamplerBase, prog.Samplers))
			w, err := prog.Weights(e)
			if err != nil {
				t.Fatal(err)
			}
			acc := Accuracy(loss, w, ins)
			bayes := Accuracy(loss, wTrue, ins)
			// The main loop is only an approximation (one gradient per data
			// arrival); branch loops iterate it to convergence.
			if acc < 0.85*bayes {
				t.Fatalf("main-loop accuracy = %.3f; ground truth achieves %.3f", acc, bayes)
			}
		})
	}
}

func TestSGDBranchRefines(t *testing.T) {
	prog, ins, _ := sgdFixture(Hinge)
	e := newEngine(t, prog, 3, 32)
	runToQuiesce(t, e, SGDEdges(prog, 1))
	runToQuiesce(t, e, datasets.InstanceStream(ins, prog.SamplerBase, prog.Samplers))
	wMain, err := prog.Weights(e)
	if err != nil {
		t.Fatal(err)
	}
	// Kick the branch: activate the samplers (under the bootstrap guard) so
	// they emit gradients against the snapshot parameters even though no new
	// data arrives.
	br, _, err := e.ForkBranch(storage.LoopID(1), nil, func(br *engine.Engine) {
		for s := 0; s < prog.Samplers; s++ {
			br.Activate(prog.SamplerBase + stream.VertexID(s))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
	wBranch, err := prog.Weights(br)
	if err != nil {
		t.Fatal(err)
	}
	objMain := Objective(Hinge, wMain, ins, prog.Lambda)
	objBranch := Objective(Hinge, wBranch, ins, prog.Lambda)
	if objBranch > objMain+1e-9 {
		t.Fatalf("branch objective %.6f worse than main approximation %.6f", objBranch, objMain)
	}
	if acc := Accuracy(Hinge, wBranch, ins); acc < 0.9 {
		t.Fatalf("branch accuracy = %.3f", acc)
	}
}

func TestSGDBranchActivationIdlesSamplersWithoutNewW(t *testing.T) {
	// A sampler activated in a branch emits one gradient; if the parameter
	// vertex declines to broadcast (converged), the loop must quiesce.
	prog, ins, _ := sgdFixture(Hinge)
	prog.RoundLimit = 1
	e := newEngine(t, prog, 2, 16)
	runToQuiesce(t, e, SGDEdges(prog, 1))
	runToQuiesce(t, e, datasets.InstanceStream(ins[:100], prog.SamplerBase, prog.Samplers))
	br, _, err := e.ForkBranch(storage.LoopID(2), nil, func(br *engine.Engine) {
		for s := 0; s < prog.Samplers; s++ {
			br.Activate(prog.SamplerBase + stream.VertexID(s))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Stop()
	if err := br.WaitDone(waitFor); err != nil {
		t.Fatal(err)
	}
}

func TestRefSGDReducesObjective(t *testing.T) {
	for _, loss := range []LossKind{Hinge, Logistic} {
		t.Run(loss.String(), func(t *testing.T) {
			_, ins, wTrue := sgdFixture(loss)
			w0 := make([]float64, 8)
			w := RefSGD(loss, ins, 8, 0.1, 1e-4, 5, 32)
			if Objective(loss, w, ins, 1e-4) >= Objective(loss, w0, ins, 1e-4) {
				t.Fatal("sequential SGD failed to reduce the objective")
			}
			acc, bayes := Accuracy(loss, w, ins), Accuracy(loss, wTrue, ins)
			if acc < 0.9*bayes {
				t.Fatalf("sequential SGD accuracy = %.3f; ground truth achieves %.3f", acc, bayes)
			}
		})
	}
}

func TestObjectiveEmpty(t *testing.T) {
	if Objective(Hinge, []float64{1}, nil, 0.1) != 0 {
		t.Fatal("objective of empty set should be 0")
	}
	if Accuracy(Hinge, []float64{1}, nil) != 0 {
		t.Fatal("accuracy of empty set should be 0")
	}
}

func TestLossKindString(t *testing.T) {
	if Hinge.String() != "svm" || Logistic.String() != "lr" {
		t.Fatal("loss names wrong")
	}
}

func TestSymmetrize(t *testing.T) {
	in := []stream.Tuple{stream.AddEdge(1, 1, 2), stream.RemoveEdge(2, 3, 4), stream.Value(3, 5, "x")}
	out := Symmetrize(in)
	if len(out) != 5 {
		t.Fatalf("len = %d; want 5 (edges doubled, values kept)", len(out))
	}
	if out[1].Src != 2 || out[1].Dst != 1 {
		t.Fatalf("reverse edge wrong: %+v", out[1])
	}
	if out[3].Kind != stream.KindRemoveEdge || out[3].Src != 4 {
		t.Fatalf("reverse removal wrong: %+v", out[3])
	}
}

func TestKMeansEdgesShape(t *testing.T) {
	prog := KMeans{CentroidBase: 0, BlockBase: 10, K: 2}
	edges := KMeansEdges(prog, 3, 1)
	if len(edges) != 12 { // 2 centroids × 3 blocks × 2 directions
		t.Fatalf("len = %d; want 12", len(edges))
	}
}

func TestSGDEdgesShape(t *testing.T) {
	prog := SGD{ParamVertex: 0, SamplerBase: 1, Samplers: 3}
	edges := SGDEdges(prog, 1)
	if len(edges) != 6 {
		t.Fatalf("len = %d; want 6", len(edges))
	}
	srcs := map[stream.VertexID]bool{}
	for _, e := range edges {
		srcs[e.Src] = true
	}
	var ids []stream.VertexID
	for id := range srcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != 4 || ids[0] != 0 || ids[3] != 3 {
		t.Fatalf("edge sources = %v", ids)
	}
}
