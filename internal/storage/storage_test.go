package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tornado/internal/stream"
)

// stores returns one instance of each store and of the reference model
// ("mem"), keyed by name: every contract test holds all three to it.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := OpenDisk(filepath.Join(t.TempDir(), "tornado.log"))
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	mvcc := NewMVCCStore()
	t.Cleanup(func() { mvcc.Close() })
	return map[string]Store{
		"mem":  NewMemStore(),
		"disk": disk,
		"mvcc": mvcc,
	}
}

func TestPutLatest(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 1, 5, []byte("v5")))
			must(t, s.Put(MainLoop, 1, 10, []byte("v10")))
			must(t, s.Put(MainLoop, 1, 7, []byte("v7"))) // out-of-order insert

			cases := []struct {
				maxIter  int64
				want     string
				wantIter int64
			}{
				{5, "v5", 5}, {6, "v5", 5}, {7, "v7", 7}, {9, "v7", 7}, {10, "v10", 10}, {100, "v10", 10},
			}
			for _, c := range cases {
				data, iter, err := s.Latest(MainLoop, 1, c.maxIter)
				if err != nil {
					t.Fatalf("Latest(maxIter=%d): %v", c.maxIter, err)
				}
				if string(data) != c.want || iter != c.wantIter {
					t.Errorf("Latest(maxIter=%d) = (%q, %d); want (%q, %d)", c.maxIter, data, iter, c.want, c.wantIter)
				}
			}
			if _, _, err := s.Latest(MainLoop, 1, 4); !errors.Is(err, ErrNotFound) {
				t.Errorf("Latest below first version: err = %v; want ErrNotFound", err)
			}
			if _, _, err := s.Latest(MainLoop, 99, 100); !errors.Is(err, ErrNotFound) {
				t.Errorf("Latest of unknown vertex: err = %v; want ErrNotFound", err)
			}
		})
	}
}

func TestPutOverwritesSameIteration(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 1, 5, []byte("a")))
			must(t, s.Put(MainLoop, 1, 5, []byte("b")))
			data, _, err := s.Latest(MainLoop, 1, 5)
			if err != nil || string(data) != "b" {
				t.Fatalf("Latest = (%q, %v); want b", data, err)
			}
		})
	}
}

func TestLoopIsolation(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 1, 1, []byte("main")))
			must(t, s.Put(LoopID(7), 1, 1, []byte("branch")))
			data, _, err := s.Latest(LoopID(7), 1, 10)
			if err != nil || string(data) != "branch" {
				t.Fatalf("branch read = (%q, %v)", data, err)
			}
			must(t, s.DropLoop(LoopID(7)))
			if _, _, err := s.Latest(LoopID(7), 1, 10); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after DropLoop err = %v; want ErrNotFound", err)
			}
			if data, _, err := s.Latest(MainLoop, 1, 10); err != nil || string(data) != "main" {
				t.Fatalf("main loop affected by DropLoop: (%q, %v)", data, err)
			}
		})
	}
}

func TestScanSnapshot(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 3, 2, []byte("c2")))
			must(t, s.Put(MainLoop, 1, 1, []byte("a1")))
			must(t, s.Put(MainLoop, 1, 9, []byte("a9")))
			must(t, s.Put(MainLoop, 2, 8, []byte("b8")))
			var got []Record
			must(t, s.Scan(MainLoop, 5, func(r Record) error {
				got = append(got, r)
				return nil
			}))
			// Vertex 1 -> a1 (9 is too new), vertex 2 absent (8 too new), vertex 3 -> c2.
			if len(got) != 2 {
				t.Fatalf("Scan returned %d records: %+v; want 2", len(got), got)
			}
			if got[0].Vertex != 1 || string(got[0].Data) != "a1" || got[1].Vertex != 3 || string(got[1].Data) != "c2" {
				t.Fatalf("Scan = %+v", got)
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Vertex < got[j].Vertex }) {
				t.Fatal("Scan output not in vertex order")
			}
		})
	}
}

func TestScanAbortsOnError(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 1, 1, []byte("x")))
			must(t, s.Put(MainLoop, 2, 1, []byte("y")))
			sentinel := errors.New("stop")
			calls := 0
			err := s.Scan(MainLoop, 10, func(Record) error {
				calls++
				return sentinel
			})
			if !errors.Is(err, sentinel) || calls != 1 {
				t.Fatalf("Scan err = %v after %d calls; want sentinel after 1", err, calls)
			}
		})
	}
}

func TestCheckpointMark(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.LastCheckpoint(MainLoop); !errors.Is(err, ErrNotFound) {
				t.Fatalf("LastCheckpoint before Flush: %v; want ErrNotFound", err)
			}
			must(t, s.Flush(MainLoop, 4))
			must(t, s.Flush(MainLoop, 9))
			must(t, s.Flush(MainLoop, 7)) // stale flush must not rewind
			got, err := s.LastCheckpoint(MainLoop)
			if err != nil || got != 9 {
				t.Fatalf("LastCheckpoint = (%d, %v); want 9", got, err)
			}
		})
	}
}

func TestCompactKeepsSnapshotFloor(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			must(t, s.Put(MainLoop, 1, 1, []byte("v1")))
			must(t, s.Put(MainLoop, 1, 5, []byte("v5")))
			must(t, s.Put(MainLoop, 1, 9, []byte("v9")))
			must(t, s.Compact(MainLoop, 6))
			// Version 1 is superseded by version 5 <= 6 and may go; the
			// freshest version <= 6 must survive so snapshots at 6 still work.
			data, iter, err := s.Latest(MainLoop, 1, 6)
			if err != nil || string(data) != "v5" || iter != 5 {
				t.Fatalf("Latest(6) after Compact = (%q, %d, %v); want v5", data, iter, err)
			}
			if data, _, err := s.Latest(MainLoop, 1, 100); err != nil || string(data) != "v9" {
				t.Fatalf("newest version lost by Compact: (%q, %v)", data, err)
			}
		})
	}
}

func TestConcurrentPuts(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			const workers, per = 8, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						v := stream.VertexID(w)
						err := s.Put(MainLoop, v, int64(i), []byte(fmt.Sprintf("%d:%d", w, i)))
						if err != nil {
							t.Errorf("Put: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				data, iter, err := s.Latest(MainLoop, stream.VertexID(w), 1<<40)
				if err != nil {
					t.Fatalf("Latest(%d): %v", w, err)
				}
				want := fmt.Sprintf("%d:%d", w, per-1)
				if string(data) != want || iter != per-1 {
					t.Fatalf("Latest(%d) = (%q, %d); want (%q, %d)", w, data, iter, want, per-1)
				}
			}
		})
	}
}

func TestDiskRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tornado.log")
	s, err := OpenDisk(path)
	must(t, err)
	must(t, s.Put(MainLoop, 1, 1, []byte("one")))
	must(t, s.Put(MainLoop, 2, 3, []byte("two")))
	must(t, s.Put(LoopID(5), 9, 4, []byte("branch")))
	must(t, s.Flush(MainLoop, 3))
	must(t, s.Close())

	r, err := OpenDisk(path)
	must(t, err)
	defer r.Close()
	data, iter, err := r.Latest(MainLoop, 2, 10)
	if err != nil || string(data) != "two" || iter != 3 {
		t.Fatalf("recovered Latest = (%q, %d, %v); want (two, 3)", data, iter, err)
	}
	if data, _, err := r.Latest(LoopID(5), 9, 10); err != nil || string(data) != "branch" {
		t.Fatalf("branch loop not recovered: (%q, %v)", data, err)
	}
	ckpt, err := r.LastCheckpoint(MainLoop)
	if err != nil || ckpt != 3 {
		t.Fatalf("recovered checkpoint = (%d, %v); want 3", ckpt, err)
	}
}

func TestDiskRecoveryDiscardsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tornado.log")
	s, err := OpenDisk(path)
	must(t, err)
	must(t, s.Put(MainLoop, 1, 1, []byte("good")))
	must(t, s.Flush(MainLoop, 1))
	must(t, s.Put(MainLoop, 1, 2, []byte("doomed")))
	must(t, s.Flush(MainLoop, 2))
	must(t, s.Close())

	// Corrupt the tail: truncate mid-record.
	fi, err := os.Stat(path)
	must(t, err)
	must(t, os.Truncate(path, fi.Size()-7))

	r, err := OpenDisk(path)
	must(t, err)
	defer r.Close()
	data, iter, err := r.Latest(MainLoop, 1, 10)
	if err != nil {
		t.Fatalf("Latest after torn tail: %v", err)
	}
	// Depending on where the cut fell, iteration 2's put may survive (its
	// record was complete) but the final checkpoint must be gone.
	if iter != 1 && iter != 2 {
		t.Fatalf("recovered iter = %d; want 1 or 2", iter)
	}
	_ = data
	ckpt, err := r.LastCheckpoint(MainLoop)
	if err != nil || ckpt != 1 {
		t.Fatalf("checkpoint after torn tail = (%d, %v); want 1", ckpt, err)
	}
	// The store must accept new writes after recovery.
	must(t, r.Put(MainLoop, 1, 3, []byte("new")))
	if data, _, err := r.Latest(MainLoop, 1, 10); err != nil || string(data) != "new" {
		t.Fatalf("write after recovery = (%q, %v)", data, err)
	}
}

func TestDiskRecoveryDiscardsCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tornado.log")
	s, err := OpenDisk(path)
	must(t, err)
	must(t, s.Put(MainLoop, 1, 1, []byte("good")))
	must(t, s.Flush(MainLoop, 1))
	must(t, s.Put(MainLoop, 1, 2, bytes.Repeat([]byte("x"), 64)))
	must(t, s.Flush(MainLoop, 2))
	must(t, s.Close())

	// Flip a byte inside the second record's payload.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	must(t, err)
	fi, err := f.Stat()
	must(t, err)
	// The log tail is: put record (29B header + 64B payload + 4B crc)
	// followed by a checkpoint record (29B header + 4B crc). Aim inside the
	// put's payload.
	if _, err := f.WriteAt([]byte{0xFF}, fi.Size()-33-20); err != nil {
		t.Fatal(err)
	}
	must(t, f.Close())

	r, err := OpenDisk(path)
	must(t, err)
	defer r.Close()
	_, iter, err := r.Latest(MainLoop, 1, 10)
	if err != nil || iter != 1 {
		t.Fatalf("after corrupt record Latest iter = (%d, %v); want 1", iter, err)
	}
}

func TestVersionsProperty(t *testing.T) {
	// Property: for any insertion order, latest(maxIter) returns the value
	// with the greatest iteration <= maxIter.
	f := func(iters []int16, probe int16) bool {
		var vs versions
		best := int64(-1 << 62)
		seen := map[int64]bool{}
		for _, raw := range iters {
			it := int64(raw)
			vs.put(it, []byte{byte(raw)})
			seen[it] = true
			if it <= int64(probe) && it > best {
				best = it
			}
		}
		_, gotIter, ok := vs.latest(int64(probe))
		if best == -1<<62 {
			return !ok
		}
		return ok && gotIter == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mvccPutKeys is the vertex count of the BENCHMARK.json harness's larger
// workload; treap paths are 17-24 nodes deep at this size.
const mvccPutKeys = 5000

func preloadedMVCC(tb testing.TB, payload []byte) *MVCCStore {
	s := NewMVCCStore()
	tb.Cleanup(func() { s.Close() })
	for v := stream.VertexID(0); v < mvccPutKeys; v++ {
		if err := s.Put(MainLoop, v, 0, payload); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkMVCCPut prices a commit-path write at 5 000 vertices by how often
// somebody looks: never (steady: one descent, an in-place append, the
// payload copy), at the query path's cadence, and before every single write
// (the degenerate case: every put copies its whole search path and chain,
// which is what every put cost before nodes had owners). The epoch is moved
// with freeze, Snapshot's effect on writers without the handle's own cost,
// and chains are compacted every 64 iterations as the engine's master does.
// overwrite-same is the redelivery path.
func BenchmarkMVCCPut(b *testing.B) {
	payload := make([]byte, 64)
	for _, every := range []int{0, 1024, 1} {
		name := "steady"
		if every > 0 {
			name = fmt.Sprintf("snapshot-every-%d", every)
		}
		b.Run(name, func(b *testing.B) {
			s := preloadedMVCC(b, payload)
			lp := s.loop(MainLoop)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if every > 0 && i%every == 0 {
					lp.freeze()
				}
				iter := int64(i/mvccPutKeys + 1)
				if err := s.Put(MainLoop, stream.VertexID(i%mvccPutKeys), iter, payload); err != nil {
					b.Fatal(err)
				}
				if i%(64*mvccPutKeys) == 64*mvccPutKeys-1 {
					if err := s.Compact(MainLoop, iter); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	b.Run("overwrite-same", func(b *testing.B) {
		s := preloadedMVCC(b, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(MainLoop, stream.VertexID(i%mvccPutKeys), 0, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMVCCPutAllocs pins what BenchmarkMVCCPut reports: with no snapshot
// outstanding a put allocates its payload copy and nothing else, and a
// redelivered put allocates nothing and copies nothing even when every node
// it passes is frozen.
func TestMVCCPutAllocs(t *testing.T) {
	payload := make([]byte, 64)
	s := preloadedMVCC(t, payload)
	i := 0
	if got := testing.AllocsPerRun(4*mvccPutKeys, func() {
		must(t, s.Put(MainLoop, stream.VertexID(i%mvccPutKeys), int64(i/mvccPutKeys+1), payload))
		i++
	}); got > 1 {
		t.Errorf("steady put allocates %v times, want at most 1 (the payload copy)", got)
	}
	lp := s.loop(MainLoop)
	root := lp.freeze()
	i = 0
	if got := testing.AllocsPerRun(mvccPutKeys, func() {
		must(t, s.Put(MainLoop, stream.VertexID(i%mvccPutKeys), 0, payload))
		i++
	}); got != 0 {
		t.Errorf("redelivered put allocates %v times, want 0", got)
	}
	if lp.root != root {
		t.Errorf("redelivered puts replaced the frozen root")
	}
}

// BenchmarkMVCCSnapshot measures the O(1) handle grab against a populated
// store.
func BenchmarkMVCCSnapshot(b *testing.B) {
	s := NewMVCCStore()
	defer s.Close()
	for v := stream.VertexID(0); v < 5000; v++ {
		if err := s.Put(MainLoop, v, 1, []byte{1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.Snapshot(MainLoop)
		h.Release()
	}
}
