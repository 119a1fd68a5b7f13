package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tornado/internal/stream"
)

// applyOp decodes one operation from (kind, l, v, iter, tag) and applies it
// identically to every store in targets. It is the single op vocabulary
// shared by the randomized equivalence harness, the concurrent soak, and
// FuzzMVCCOps, so a divergence found by any of them replays in the others.
func applyOp(t testing.TB, targets []Store, kind int, l LoopID, v stream.VertexID, iter int64, tag int) {
	t.Helper()
	for _, s := range targets {
		var err error
		switch kind % 7 {
		case 0, 1, 2:
			err = s.Put(l, v, iter, []byte(fmt.Sprintf("%d/%d/%d/%d", l, v, iter, tag)))
		case 3:
			err = s.Flush(l, iter)
		case 4:
			err = s.Compact(l, iter)
		case 5:
			err = s.Truncate(l, iter)
		case 6:
			err = s.DropLoop(l)
		}
		if err != nil {
			t.Fatalf("op %d on %T: %v", kind%7, s, err)
		}
	}
}

// checkEquivalent asserts that ref and got are observationally identical
// over the probed loops/vertices: Latest at every probe point, full Scan
// order and contents, and the checkpoint mark.
func checkEquivalent(t testing.TB, ref, got Store, loops []LoopID, verts []stream.VertexID, maxIter int64, ctx string) {
	t.Helper()
	for _, l := range loops {
		for _, v := range verts {
			// math.MaxInt64 rides along: it is what "read the newest" passes
			// in production, and it once caught an overflow in the chain
			// search's exclusive-bound arithmetic.
			probes := make([]int64, 0, maxIter+2)
			for p := int64(0); p <= maxIter; p++ {
				probes = append(probes, p)
			}
			probes = append(probes, math.MaxInt64)
			for _, probe := range probes {
				rd, ri, rerr := ref.Latest(l, v, probe)
				gd, gi, gerr := got.Latest(l, v, probe)
				if errors.Is(rerr, ErrNotFound) != errors.Is(gerr, ErrNotFound) {
					t.Fatalf("%s: Latest(%d,%d,%d) errs diverge: %v vs %v", ctx, l, v, probe, rerr, gerr)
				}
				if rerr == nil && (ri != gi || !bytes.Equal(rd, gd)) {
					t.Fatalf("%s: Latest(%d,%d,%d) = (%q,%d) vs (%q,%d)", ctx, l, v, probe, rd, ri, gd, gi)
				}
			}
		}
		rc, rerr := ref.LastCheckpoint(l)
		gc, gerr := got.LastCheckpoint(l)
		if errors.Is(rerr, ErrNotFound) != errors.Is(gerr, ErrNotFound) || (rerr == nil && rc != gc) {
			t.Fatalf("%s: LastCheckpoint(%d) diverges: (%d,%v) vs (%d,%v)", ctx, l, rc, rerr, gc, gerr)
		}
		var refRecs, gotRecs []Record
		collect := func(out *[]Record) func(Record) error {
			return func(r Record) error {
				cp := make([]byte, len(r.Data))
				copy(cp, r.Data)
				*out = append(*out, Record{Vertex: r.Vertex, Iteration: r.Iteration, Data: cp})
				return nil
			}
		}
		must(t, ref.Scan(l, maxIter, collect(&refRecs)))
		must(t, got.Scan(l, maxIter, collect(&gotRecs)))
		if len(refRecs) != len(gotRecs) {
			t.Fatalf("%s: Scan(%d) lengths diverge: %d vs %d", ctx, l, len(refRecs), len(gotRecs))
		}
		for i := range refRecs {
			r, g := refRecs[i], gotRecs[i]
			if r.Vertex != g.Vertex || r.Iteration != g.Iteration || !bytes.Equal(r.Data, g.Data) {
				t.Fatalf("%s: Scan(%d)[%d] diverges: %+v vs %+v", ctx, l, i, r, g)
			}
		}
	}
}

// eqHarness drives MemStore (the reference model) and MVCCStore through one
// op stream: the seven store ops of applyOp plus Snapshot and Release. Every
// handle it holds carries an oracle materialised from the reference at grab
// time. After every later op each held handle is probed (Latest of the op's
// vertex at every probe iteration, one full Scan), and when it is released
// or the harness closes, checked in full — a write that reached a node or
// chain a handle can still see shows up as a diverging handle read.
type eqHarness struct {
	t      testing.TB
	mem    *MemStore
	mvcc   *MVCCStore
	probes []int64 // 0..maxIter, then math.MaxInt64
	held   []heldHandle
	quiet  bool // preloading: handles are checked in full afterwards instead
}

// heldHandle is one outstanding MVCC handle and what it must keep reading:
// a copy of the reference's version chains at grab time, in vertex order.
// (The copy shares the payloads: MemStore swaps a payload, never edits one.)
type heldHandle struct {
	ctx string
	h   Snapshot
	ref []refVertex
}

type refVertex struct {
	id stream.VertexID
	vs versions
}

// materialise copies loop l of the reference.
func (e *eqHarness) materialise(l LoopID) []refVertex {
	e.mem.mu.RLock()
	defer e.mem.mu.RUnlock()
	ls := e.mem.loops[l]
	if ls == nil {
		return nil
	}
	ref := make([]refVertex, 0, len(ls.verts))
	for id, vs := range ls.verts {
		ref = append(ref, refVertex{id, versions{iters: slices.Clone(vs.iters), data: slices.Clone(vs.data)}})
	}
	slices.SortFunc(ref, func(a, b refVertex) int { return cmp.Compare(a.id, b.id) })
	return ref
}

const maxHeld = 3

func newEqHarness(t testing.TB, maxIter int64) *eqHarness {
	e := &eqHarness{t: t, mem: NewMemStore(), mvcc: NewMVCCStore()}
	for p := int64(0); p <= maxIter; p++ {
		e.probes = append(e.probes, p)
	}
	e.probes = append(e.probes, math.MaxInt64)
	return e
}

func (e *eqHarness) close() {
	e.t.Helper()
	for len(e.held) > 0 {
		e.release(0, "at close")
	}
	e.mvcc.Close()
}

// apply runs one op on both stores (kinds 0-6 are applyOp's; 7 takes a
// snapshot of l, 8 releases the held handle iter selects), then probes
// every held handle.
func (e *eqHarness) apply(kind int, l LoopID, v stream.VertexID, iter int64, tag int) {
	e.t.Helper()
	after := fmt.Sprintf("after op %d (kind %d)", tag, kind%9)
	switch kind % 9 {
	case 7:
		if len(e.held) == maxHeld {
			e.release(0, after)
		}
		e.held = append(e.held, heldHandle{
			ctx: fmt.Sprintf("handle on loop %d taken at op %d", l, tag),
			h:   e.mvcc.Snapshot(l), ref: e.materialise(l)})
	case 8:
		if len(e.held) > 0 {
			e.release(int(iter)%len(e.held), after)
		}
	default:
		applyOp(e.t, []Store{e.mem, e.mvcc}, kind%9, l, v, iter, tag)
	}
	for _, hh := range e.held {
		if !e.quiet {
			e.checkScan(hh, math.MaxInt64, after)
			for _, p := range e.probes {
				e.checkLatest(hh, v, p, after)
			}
		}
	}
}

// release checks a handle in full before letting it go.
func (e *eqHarness) release(i int, when string) {
	e.t.Helper()
	e.checkFull(e.held[i], when)
	e.held[i].h.Release()
	e.held = append(e.held[:i], e.held[i+1:]...)
}

// checkFull is a Scan at every probe iteration (every chain at every
// probe), and Latest of every vertex the handle holds (every search path of
// the frozen tree).
func (e *eqHarness) checkFull(hh heldHandle, when string) {
	e.t.Helper()
	for _, p := range e.probes {
		e.checkScan(hh, p, when)
	}
	for _, rv := range hh.ref {
		e.checkLatest(hh, rv.id, math.MaxInt64, when)
	}
}

// checkScan compares a full Scan through the handle at p with the oracle.
func (e *eqHarness) checkScan(hh heldHandle, p int64, when string) {
	e.t.Helper()
	i := 0
	// next advances i to the oracle's next vertex with a version <= p.
	next := func() (id stream.VertexID, data []byte, iter int64, ok bool) {
		for ; i < len(hh.ref); i++ {
			if data, iter, ok = hh.ref[i].vs.latest(p); ok {
				i++
				return hh.ref[i-1].id, data, iter, true
			}
		}
		return 0, nil, 0, false
	}
	must(e.t, hh.h.Scan(p, func(r Record) error {
		id, data, iter, ok := next()
		if !ok {
			return fmt.Errorf("%s, %s: Scan(%d) yields extra vertex %d", hh.ctx, when, p, r.Vertex)
		}
		if r.Vertex != id || r.Iteration != iter || !bytes.Equal(r.Data, data) {
			return fmt.Errorf("%s, %s: Scan(%d) yields %d@%d %q, want %d@%d %q", hh.ctx, when, p, r.Vertex, r.Iteration, r.Data, id, iter, data)
		}
		return nil
	}))
	if id, _, _, ok := next(); ok {
		e.t.Fatalf("%s, %s: Scan(%d) ends before vertex %d", hh.ctx, when, p, id)
	}
}

// checkLatest compares Latest of v — present in the handle's view or not —
// at p with the oracle.
func (e *eqHarness) checkLatest(hh heldHandle, v stream.VertexID, p int64, when string) {
	e.t.Helper()
	var (
		want     []byte
		wantIter int64
		found    bool
	)
	if j, ok := slices.BinarySearchFunc(hh.ref, v, func(rv refVertex, v stream.VertexID) int { return cmp.Compare(rv.id, v) }); ok {
		want, wantIter, found = hh.ref[j].vs.latest(p)
	}
	data, iter, err := hh.h.Latest(v, p)
	if !found {
		if !errors.Is(err, ErrNotFound) {
			e.t.Fatalf("%s, %s: Latest(%d,%d) = (%q,%d,%v), want ErrNotFound", hh.ctx, when, v, p, data, iter, err)
		}
	} else if err != nil || iter != wantIter || !bytes.Equal(data, want) {
		e.t.Fatalf("%s, %s: Latest(%d,%d) = (%q,%d,%v), want (%q,%d)", hh.ctx, when, v, p, data, iter, err, want, wantIter)
	}
}

// wideKeys is the key space of the ownership tests: wide enough that search
// paths are several nodes deep, so a write after a snapshot has frozen
// ancestors to copy and a new key's rotation has frozen and owned nodes to
// relink.
const wideKeys = 1024

// preload inserts 512 of the wide keys into loop 0 in a random order, taking
// a snapshot every 100 inserts so the tree is built across several epochs.
func (e *eqHarness) preload(rng *rand.Rand) {
	e.t.Helper()
	e.quiet = true
	for i, k := range rng.Perm(wideKeys)[:512] {
		e.apply(0, 0, stream.VertexID(k), 0, -i)
		if i%100 == 99 {
			e.apply(7, 0, 0, 0, -i)
		}
	}
	e.quiet = false
	for _, hh := range e.held {
		e.checkFull(hh, "after the preload")
	}
}

// TestMVCCEquivalenceRandom drives MemStore and MVCCStore through identical
// random Put/Flush/Compact/Truncate/DropLoop/Snapshot/Release sequences and
// asserts observational equality — Latest at every probe point, Scan
// order/contents, checkpoints — throughout, and that every held handle keeps
// reading its grab-time state. Odd trials work a handful of keys (dense
// same-iteration overwrites and chain edits), even ones the wide key space.
func TestMVCCEquivalenceRandom(t *testing.T) {
	loops := []LoopID{0, 1, 2}
	verts := []stream.VertexID{1, 2, 3, 4, 9}
	const maxIter = 30
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 1))
			e := newEqHarness(t, maxIter)
			defer e.close()
			wide := trial%2 == 0
			if wide {
				e.preload(rng)
			}
			for op := 0; op < 200; op++ {
				v := verts[rng.Intn(len(verts))]
				if wide {
					v = stream.VertexID(rng.Intn(wideKeys))
				}
				e.apply(rng.Intn(9), loops[rng.Intn(len(loops))], v, rng.Int63n(maxIter), op)
				if op%20 == 19 {
					checkEquivalent(t, e.mem, e.mvcc, loops, verts, maxIter, fmt.Sprintf("op %d", op))
				}
			}
			checkEquivalent(t, e.mem, e.mvcc, loops, verts, maxIter, "final")
		})
	}
}

// TestMVCCEquivalenceConcurrent runs one deterministic op sequence per loop
// from its own goroutine (writers to different loops never conflict) while
// reader goroutines hammer live Latest/Scan and snapshot handles on
// the shared store. Afterwards each loop must match a MemStore that
// replayed the same per-loop sequence. Run under -race (make check does).
func TestMVCCEquivalenceConcurrent(t *testing.T) {
	const (
		nLoops  = 4
		nOps    = 400
		maxIter = 30
	)
	verts := []stream.VertexID{1, 2, 3, 4, 9}
	mvcc := NewMVCCStore()
	defer mvcc.Close()

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r) * 31))
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				l := LoopID(rng.Intn(nLoops))
				_, _, _ = mvcc.Latest(l, verts[rng.Intn(len(verts))], rng.Int63n(maxIter))
				h := mvcc.Snapshot(l)
				_ = h.Scan(maxIter, func(Record) error { return nil })
				h.Release()
			}
		}(r)
	}

	var writers sync.WaitGroup
	for l := 0; l < nLoops; l++ {
		writers.Add(1)
		go func(l int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(l)*7919 + 5))
			for op := 0; op < nOps; op++ {
				// DropLoop excluded here: per-loop replay below cannot model
				// it without also re-running every later op, and the random
				// sequential harness already covers it.
				kind := []int{0, 1, 2, 3, 4, 5}[rng.Intn(6)]
				applyOp(t, []Store{mvcc}, kind, LoopID(l),
					verts[rng.Intn(len(verts))], rng.Int63n(maxIter), op)
			}
		}(l)
	}
	writers.Wait()
	close(stopReaders)
	readers.Wait()

	for l := 0; l < nLoops; l++ {
		mem := NewMemStore()
		rng := rand.New(rand.NewSource(int64(l)*7919 + 5))
		for op := 0; op < nOps; op++ {
			kind := []int{0, 1, 2, 3, 4, 5}[rng.Intn(6)]
			applyOp(t, []Store{mem}, kind, LoopID(l),
				verts[rng.Intn(len(verts))], rng.Int63n(maxIter), op)
		}
		checkEquivalent(t, mem, mvcc, []LoopID{LoopID(l)}, verts, maxIter, fmt.Sprintf("loop %d", l))
	}
}

// TestInPlaceWritersVsHandles is the ownership rule under the race detector
// (make race runs it): two writers put in place into ONE loop — first a
// burst of new keys in random order (splits over owned and frozen nodes),
// then appends to the chains — while readers take handles at random instants
// and hold them across later writes, and one goroutine reads the live store.
// Writer w's j-th put is version j/K+1 of its key j%K, so a view is a
// consistent cut exactly when, per writer, the versions it holds are a
// prefix of that sequence; every view must be one, and must read the same
// twice.
func TestInPlaceWritersVsHandles(t *testing.T) {
	const (
		nWriters = 2
		K        = 700 // keys per writer
		rounds   = 6
		loop     = MainLoop
	)
	s := NewMVCCStore()
	defer s.Close()
	keys := make([][]stream.VertexID, nWriters)
	owner := map[stream.VertexID][2]int{} // key -> (writer, index)
	perm := rand.New(rand.NewSource(11)).Perm(nWriters * K)
	for w := range keys {
		for x := 0; x < K; x++ {
			k := stream.VertexID(perm[w*K+x])
			keys[w] = append(keys[w], k)
			owner[k] = [2]int{w, x}
		}
	}
	payload := func(k stream.VertexID, iter int64) []byte { return []byte(fmt.Sprintf("%d@%d", k, iter)) }

	// cut reports a view's records as per-writer put counts, checking each
	// payload and that each writer's visible versions form a prefix.
	cut := func(recs []Record, ctx string) (counts [nWriters]int) {
		var top, visible [nWriters]int // highest put index seen, plus one; keys seen
		for _, r := range recs {
			if !bytes.Equal(r.Data, payload(r.Vertex, r.Iteration)) {
				t.Errorf("%s: vertex %d@%d holds %q", ctx, r.Vertex, r.Iteration, r.Data)
			}
			o := owner[r.Vertex]
			top[o[0]] = max(top[o[0]], int(r.Iteration-1)*K+o[1]+1)
			visible[o[0]]++
		}
		for w := range top {
			if want := min(top[w], K); visible[w] != want {
				t.Errorf("%s: writer %d shows %d puts but %d keys, want %d: not a consistent cut", ctx, w, top[w], visible[w], want)
			}
		}
		for _, r := range recs {
			o := owner[r.Vertex]
			// The newest version of key x among the first top puts.
			if want := int64((top[o[0]]-1-o[1])/K + 1); r.Iteration != want {
				t.Errorf("%s: writer %d shows %d puts but vertex %d is at iteration %d, want %d: not a consistent cut",
					ctx, o[0], top[o[0]], r.Vertex, r.Iteration, want)
			}
		}
		return top
	}
	collect := func(scan func(int64, func(Record) error) error) []Record {
		var recs []Record
		_ = scan(math.MaxInt64, func(r Record) error { recs = append(recs, r); return nil })
		return recs
	}

	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < nWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for j := 0; j < rounds*K; j++ {
				k, iter := keys[w][j%K], int64(j/K+1)
				if err := s.Put(loop, k, iter, payload(k, iter)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				h := s.Snapshot(loop)
				ctx := fmt.Sprintf("reader %d handle %d", r, i)
				first := collect(h.Scan)
				cut(first, ctx)
				for spin := rng.Intn(2000); spin > 0; spin-- {
					runtime.Gosched() // hold the handle across later in-place writes
				}
				again := collect(h.Scan)
				if len(again) != len(first) {
					t.Errorf("%s: saw %d vertices, then %d", ctx, len(first), len(again))
				}
				for i := range again {
					if a, f := again[i], first[i]; len(again) == len(first) && (a.Vertex != f.Vertex || a.Iteration != f.Iteration) {
						t.Errorf("%s: [%d] was %d@%d, now %d@%d", ctx, i, f.Vertex, f.Iteration, a.Vertex, a.Iteration)
					}
				}
				for _, f := range first[:min(len(first), 64)] {
					if data, iter, err := h.Latest(f.Vertex, math.MaxInt64); err != nil || iter != f.Iteration || !bytes.Equal(data, f.Data) {
						t.Errorf("%s: Latest(%d) = (%q,%d,%v), scan saw %d", ctx, f.Vertex, data, iter, err, f.Iteration)
					}
				}
				h.Release()
			}
		}(r)
	}
	readers.Add(1)
	go func() { // the live store: Latest never goes back, Scan is a consistent cut
		defer readers.Done()
		rng := rand.New(rand.NewSource(99))
		seen := map[stream.VertexID]int64{}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			k := keys[rng.Intn(nWriters)][rng.Intn(K)]
			data, iter, err := s.Latest(loop, k, math.MaxInt64)
			if err == nil && (!bytes.Equal(data, payload(k, iter)) || iter < seen[k]) {
				t.Errorf("live Latest(%d) = (%q,%d) after iteration %d", k, data, iter, seen[k])
			}
			if err == nil {
				seen[k] = iter
			}
			if i%64 == 0 {
				cut(collect(func(m int64, fn func(Record) error) error { return s.Scan(loop, m, fn) }), "live scan")
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	if got := cut(collect(func(m int64, fn func(Record) error) error { return s.Scan(loop, m, fn) }), "final"); got != [nWriters]int{rounds * K, rounds * K} {
		t.Fatalf("final state shows %v puts per writer, want %d each", got, rounds*K)
	}
	if n := s.NumVersions(loop); n != nWriters*rounds*K {
		t.Fatalf("NumVersions = %d, want %d", n, nWriters*rounds*K)
	}
}

// FuzzMVCCOps feeds arbitrary byte strings through the shared op vocabulary
// (four bytes an op: kind and loop, two bytes of vertex, iteration) into
// MemStore and MVCCStore over the preloaded wide key space, checks every held
// handle after every op, and asserts observational equality after the
// sequence. go test -fuzz=FuzzMVCCOps ./internal/storage/ explores; the seed
// corpus replays in every ordinary test run.
func FuzzMVCCOps(f *testing.F) {
	f.Add([]byte{0x00, 0x13, 0x27, 0x3b})
	f.Add([]byte{0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04})
	f.Add([]byte("put-compact-truncate-drop"))
	// Snapshot; a new key beside a frozen leaf; overwrite it at the same
	// iteration; truncate it away (a join over frozen nodes); compact.
	f.Add([]byte{7, 0, 0, 0, 0, 3, 1, 5, 0, 3, 1, 5, 5, 0, 0, 4, 4, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		loops := []LoopID{0, 1}
		const maxIter = 15
		e := newEqHarness(t, maxIter)
		defer e.close()
		e.preload(rand.New(rand.NewSource(1)))
		var verts []stream.VertexID
		for i := 0; i+4 <= len(ops); i += 4 {
			b := ops[i : i+4]
			v := stream.VertexID(int(b[1])<<8|int(b[2])) % wideKeys
			verts = append(verts, v)
			e.apply(int(b[0]&0x0f), loops[int(b[0]>>4)%len(loops)], v, int64(b[3])%maxIter, i/4)
		}
		checkEquivalent(t, e.mem, e.mvcc, loops, verts, maxIter, "fuzz")
	})
}

// TestPinBlocksCompact is the satellite regression: in every backend, a
// pinned iteration's visible version survives a Compact whose keepFrom
// would otherwise drop it, and compaction proceeds normally once released.
func TestPinBlocksCompact(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const v = stream.VertexID(7)
			for iter := int64(1); iter <= 10; iter++ {
				must(t, s.Put(MainLoop, v, iter, []byte{byte(iter)}))
			}
			release := s.Pin(MainLoop, 5)
			must(t, s.Compact(MainLoop, 10))
			data, iter, err := s.Latest(MainLoop, v, 5)
			if err != nil || iter != 5 || !bytes.Equal(data, []byte{5}) {
				t.Fatalf("pinned version lost: (%v,%d,%v)", data, iter, err)
			}
			release()
			release() // idempotent
			must(t, s.Compact(MainLoop, 10))
			if _, _, err := s.Latest(MainLoop, v, 5); !errors.Is(err, ErrNotFound) {
				t.Fatalf("version below keepFrom survived after release: %v", err)
			}
			if data, iter, err := s.Latest(MainLoop, v, 10); err != nil || iter != 10 {
				t.Fatalf("freshest version must survive: (%v,%d,%v)", data, iter, err)
			}
		})
	}
}

// TestPinCompactRace races pin/read/release cycles against a continuously
// advancing compactor in every backend: while a reader holds a pin on the
// iteration it observed, its reads at that iteration must keep succeeding.
// Run under -race (make check does).
func TestPinCompactRace(t *testing.T) {
	for name, s := range stores(t) {
		s := s
		t.Run(name, func(t *testing.T) {
			const v = stream.VertexID(3)
			var (
				frontier int64 = 1
				frontMu  sync.Mutex
			)
			must(t, s.Put(MainLoop, v, 1, []byte{1}))
			stop := make(chan struct{})
			var writer sync.WaitGroup
			writer.Add(1)
			go func() { // writer+compactor: advance and compact to the tip
				defer writer.Done()
				for iter := int64(2); ; iter++ {
					select {
					case <-stop:
						return
					default:
					}
					// Put/advance/compact under frontMu, mirroring the
					// engine: a fork pins under the same lock that defines
					// the frontier, so no compaction can have computed its
					// pin clamp before the pin while executing after it.
					frontMu.Lock()
					must(t, s.Put(MainLoop, v, iter, []byte{byte(iter)}))
					frontier = iter
					must(t, s.Compact(MainLoop, iter))
					frontMu.Unlock()
				}
			}()
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for i := 0; i < 300; i++ {
						frontMu.Lock()
						at := frontier
						release := s.Pin(MainLoop, at)
						frontMu.Unlock()
						// The version at `at` was committed before the pin;
						// until release, a read at `at` must keep finding a
						// version no matter how far the compactor advances.
						for probe := 0; probe < 5; probe++ {
							if _, _, err := s.Latest(MainLoop, v, at); err != nil {
								t.Errorf("pinned read at %d failed: %v", at, err)
								release()
								return
							}
						}
						release()
					}
				}()
			}
			readers.Wait()
			close(stop)
			writer.Wait()
		})
	}
}

// TestSnapshotHandleImmune proves the epoch property: a handle taken before
// Put/Compact/Truncate/DropLoop keeps reading exactly its grab-time state.
func TestSnapshotHandleImmune(t *testing.T) {
	s := NewMVCCStore()
	defer s.Close()
	for v := stream.VertexID(1); v <= 50; v++ {
		for iter := int64(1); iter <= 4; iter++ {
			must(t, s.Put(MainLoop, v, iter, []byte(fmt.Sprintf("%d@%d", v, iter))))
		}
	}
	h := s.Snapshot(MainLoop)
	defer h.Release()

	// Mutate everything after the grab.
	for v := stream.VertexID(1); v <= 50; v++ {
		must(t, s.Put(MainLoop, v, 9, []byte("new")))
	}
	must(t, s.Compact(MainLoop, 9))
	must(t, s.Truncate(MainLoop, 0))
	must(t, s.DropLoop(MainLoop))

	for v := stream.VertexID(1); v <= 50; v++ {
		for probe := int64(1); probe <= 4; probe++ {
			data, iter, err := h.Latest(v, probe)
			if err != nil || iter != probe || string(data) != fmt.Sprintf("%d@%d", v, probe) {
				t.Fatalf("handle read %d@%d diverged: (%q,%d,%v)", v, probe, data, iter, err)
			}
		}
	}
	n := 0
	var prev stream.VertexID
	must(t, h.Scan(4, func(r Record) error {
		if n > 0 && r.Vertex <= prev {
			t.Fatalf("handle scan out of order: %d after %d", r.Vertex, prev)
		}
		prev = r.Vertex
		n++
		if r.Iteration != 4 {
			t.Fatalf("handle scan of vertex %d at iter %d, want 4", r.Vertex, r.Iteration)
		}
		return nil
	}))
	if n != 50 {
		t.Fatalf("handle scan saw %d vertices, want 50", n)
	}
	// The live store, meanwhile, is empty.
	if _, _, err := s.Latest(MainLoop, 1, 1<<40); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live store should be dropped: %v", err)
	}
}

// TestMVCCStatsAccounting sanity-checks the residency counters the
// tornado_store_* gauges export.
func TestMVCCStatsAccounting(t *testing.T) {
	s := NewMVCCStore()
	defer s.Close()
	payload := make([]byte, 10)
	for v := stream.VertexID(0); v < 8; v++ {
		for iter := int64(1); iter <= 3; iter++ {
			must(t, s.Put(MainLoop, v, iter, payload))
		}
	}
	st := s.StoreStats()
	if st.LiveVersions != 24 || st.ResidentBytes != 240 || st.Loops != 1 {
		t.Fatalf("after puts: %+v", st)
	}
	h := s.Snapshot(MainLoop)
	release := s.Pin(MainLoop, 3)
	if st = s.StoreStats(); st.PinnedSnapshots != 2 {
		t.Fatalf("pinned snapshots = %d, want 2 (one handle + one pin)", st.PinnedSnapshots)
	}
	release()
	h.Release()
	must(t, s.Compact(MainLoop, 3))
	st = s.StoreStats()
	if st.LiveVersions != 8 || st.ResidentBytes != 80 {
		t.Fatalf("after compact: %+v", st)
	}
	if st.Compactions != 1 || st.ReclaimedVersions != 16 {
		t.Fatalf("compaction counters: %+v", st)
	}
	if st.PinnedSnapshots != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// TestSnapshotReadsRaceRelease regression-tests the Release data race: the
// engine legitimately releases a handle (recovery swapping its
// SnapshotSource, double-release on branch stop) while readers holding the
// same handle are mid-Latest/Scan. Readers must keep their coherent view —
// no race, no spurious ErrNotFound. Run under -race (make check does).
func TestSnapshotReadsRaceRelease(t *testing.T) {
	s := NewMVCCStore()
	defer s.Close()
	for v := stream.VertexID(1); v <= 64; v++ {
		must(t, s.Put(MainLoop, v, 3, []byte("x")))
	}
	for round := 0; round < 50; round++ {
		h := s.Snapshot(MainLoop)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					if _, _, err := h.Latest(stream.VertexID(1+(i+r)%64), 9); err != nil {
						t.Errorf("read through held handle failed: %v", err)
						return
					}
					n := 0
					_ = h.Scan(9, func(Record) error { n++; return nil })
					if n != 64 {
						t.Errorf("scan through held handle saw %d vertices, want 64", n)
						return
					}
				}
			}(r)
		}
		close(start)
		h.Release()
		h.Release() // double-release is the documented engine pattern
		wg.Wait()
	}
}

// TestLeakedHandleRetiresGauge: a handle dropped without Release must not
// stay in the pinned-snapshot gauge forever — the store holds no strong
// reference to it, and collection retires its gauge entry.
func TestLeakedHandleRetiresGauge(t *testing.T) {
	s := NewMVCCStore()
	defer s.Close()
	must(t, s.Put(MainLoop, 1, 1, []byte("x")))
	func() {
		_ = s.Snapshot(MainLoop) // leaked: never released
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.StoreStats().PinnedSnapshots != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leaked handle still pinned after GC: %+v", s.StoreStats())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestCompactedChainsDropPayloadReferences: compaction and truncation must
// copy the kept window into fresh backing arrays — a subslice of the old
// arrays would keep every dropped payload reachable while the residency
// gauges report it reclaimed.
func TestCompactedChainsDropPayloadReferences(t *testing.T) {
	c := &vchain{}
	for iter := int64(1); iter <= 8; iter++ {
		c.put(0, iter, []byte{byte(iter)})
	}
	var rc reclaim
	cc, dropped := c.compacted(5, 1, &rc)
	if got := len(cc.vers); !dropped || got != 4 {
		t.Fatalf("compacted kept %d versions (dropped=%v), want 4 (iters 5..8)", got, dropped)
	}
	if cap(cc.vers) != len(cc.vers) {
		t.Fatalf("compacted shares the old backing array: len %d cap %d", len(cc.vers), cap(cc.vers))
	}
	tc, dropped := c.truncated(3, 1, &rc)
	if !dropped || len(tc.vers) != 3 {
		t.Fatalf("truncated kept %d versions (dropped=%v), want 3", len(tc.vers), dropped)
	}
	if cap(tc.vers) != len(tc.vers) {
		t.Fatalf("truncated shares the old backing array: len %d cap %d", len(tc.vers), cap(tc.vers))
	}
	if cc.epoch != 1 || tc.epoch != 1 {
		t.Fatalf("rebuilt chains tagged %d/%d, want the rebuilding epoch 1", cc.epoch, tc.epoch)
	}
}
