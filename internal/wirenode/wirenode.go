// Package wirenode runs a minimal distributed SSSP directly on the wire
// transport: one master process (NodeID 0) and N worker processes joined by
// real sockets. It exists to exercise the socket substrate the way the paper
// deploys Tornado — as separate OS processes whose only shared state is the
// wire — and is the engine room of cmd/tornado-node and the multi-process
// chaos soak.
//
// The protocol is deliberately tiny:
//
//   - a worker listens on its own port, dials the master's seed address and
//     sends Hello from a self-chosen temporary NodeID;
//   - the master assigns dense worker IDs 1..N and broadcasts the full
//     address table (Assign), then ships each worker its partition of the
//     edge list (Load/LoadDone) — vertex v is owned by worker 1 + v mod N;
//   - workers relax distances asynchronously, sending Relaxes batches to the
//     owners of boundary targets — one per owner per handled message, since
//     the transport ships every payload as a frame of its own; the
//     transport's cumulative-ack/resend machinery makes every message
//     exactly-once end to end, so the Chandy-Lamport-style double probe
//     (Probe/ProbeAck: matching global sent/received counts and idle inboxes
//     in two consecutive rounds) detects termination exactly;
//   - the master fetches per-worker distance maps (Fetch/Result) and sends
//     Quit.
//
// Socket-level chaos (drop, duplicate, corrupt) can be injected per process
// through transport.WireFaults; the run must still terminate with the exact
// fixed point because corruption is detected (CRC) and repaired (resend).
package wirenode

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"

	"tornado/internal/transport"
)

// Edge is one weighted directed edge of the shipped graph.
type Edge struct {
	Src, Dst uint64
	W        int64
}

// Protocol messages. Everything crosses the wire in gob, so every field is
// exported and every type registered.
type (
	// Hello announces a joining worker and the address it listens on.
	Hello struct{ Addr string }
	// Assign gives a worker its dense ID and the full cluster table.
	Assign struct {
		ID      int32
		Workers int32
		Table   map[int32]string
	}
	// Load ships one chunk of the worker's edge partition.
	Load struct{ Edges []Edge }
	// LoadDone ends partition shipping and names the SSSP source.
	LoadDone struct{ Source uint64 }
	// Relax proposes a tentative distance for a vertex.
	Relax struct {
		Dst  uint64
		Dist int64
	}
	// Relaxes is a worker's batch of relaxations for one owner.
	Relaxes []Relax
	// Probe asks a worker for its termination counters.
	Probe struct{ Epoch int64 }
	// ProbeAck reports them: relaxations sent and received so far. A
	// relaxation still in flight (or parked in an inbox behind the probe)
	// was counted by its sender but not yet by its receiver, so the global
	// sums disagree and termination is not declared.
	ProbeAck struct {
		Epoch      int64
		Sent, Recv int64
	}
	// Fetch asks for the worker's distance map; Result returns it.
	Fetch  struct{}
	Result struct{ Dists map[uint64]int64 }
	// Quit tells the worker to exit.
	Quit struct{}
)

func init() {
	gob.Register(Hello{})
	gob.Register(Assign{})
	gob.Register(Load{})
	gob.Register(LoadDone{})
	gob.Register(Relaxes(nil))
	gob.Register(Probe{})
	gob.Register(ProbeAck{})
	gob.Register(Fetch{})
	gob.Register(Result{})
	gob.Register(Quit{})
}

const masterID transport.NodeID = 0

// chunk caps the edges of a Load and the relaxations of a Relaxes payload,
// so no frame nears the size cap.
const chunk = 512

// owner maps a vertex to the worker that holds it.
func owner(v uint64, workers int32) transport.NodeID {
	return transport.NodeID(1 + v%uint64(workers))
}

// table is the shared NodeID -> wire address map behind Resolve. Acks to a
// not-yet-learned temporary ID shed at the wire and are repaired by the
// sender's resend, so learning an address late is safe.
type table struct {
	mu sync.Mutex
	m  map[transport.NodeID]string
}

func newTable() *table { return &table{m: make(map[transport.NodeID]string)} }

func (t *table) set(id transport.NodeID, addr string) {
	t.mu.Lock()
	t.m[id] = addr
	t.mu.Unlock()
}

func (t *table) resolve(id transport.NodeID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// newNet assembles a Network whose wire listens on listenAddr and resolves
// remote peers through tab. faults may be nil.
func newNet(listenAddr string, tab *table, faults *transport.WireFaults, seed int64) (*transport.Network, error) {
	ln, err := transport.ListenTCP(listenAddr)
	if err != nil {
		return nil, fmt.Errorf("wirenode: listen: %w", err)
	}
	n := transport.NewNetwork(transport.Options{
		ResendAfter: 5 * time.Millisecond,
		DropSeed:    seed,
		Wire: &transport.WireConfig{
			Listener: ln,
			Dialer:   transport.TCPDialer{},
			Codec:    transport.GobPayloadCodec{},
			Resolve:  tab.resolve,
			Faults:   faults,
		},
	})
	return n, nil
}

// tempID derives a worker's pre-assignment NodeID from its process identity
// and listen address: unique enough for a handshake, far above the dense
// worker range.
func tempID(addr string) transport.NodeID {
	h := fnv.New32a()
	_, _ = h.Write([]byte(addr))
	fmt.Fprintf(h, "|%d", os.Getpid())
	return transport.NodeID(1<<20 + int32(h.Sum32()%(1<<20)))
}

// MasterConfig configures RunMaster.
type MasterConfig struct {
	// ListenAddr is the seed address workers dial (e.g. "127.0.0.1:7070";
	// ":0" picks a port — read it back with Network.WireAddr before
	// starting workers, via the OnListen hook).
	ListenAddr string
	// Workers is the number of worker processes to wait for.
	Workers int
	// Edges is the full graph; Source the SSSP source vertex.
	Edges  []Edge
	Source uint64
	// Faults optionally injects socket chaos on the master's connections.
	Faults *transport.WireFaults
	// OnListen, when non-nil, receives the bound seed address before any
	// worker is awaited (used by tests that spawn workers afterwards).
	OnListen func(addr string)
	// ProbeEvery is the termination-probe period (default 10ms).
	ProbeEvery time.Duration
	// Timeout bounds the whole run (default 2m).
	Timeout time.Duration
}

// RunMaster drives one distributed SSSP to completion and returns the final
// distance map (only vertices with a finite distance appear).
func RunMaster(cfg MasterConfig) (map[uint64]int64, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("wirenode: need at least one worker")
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 10 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	tab := newTable()
	net, err := newNet(cfg.ListenAddr, tab, cfg.Faults, 1)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	ep := net.Register(masterID)
	if cfg.OnListen != nil {
		cfg.OnListen(net.WireAddr())
	}
	deadline := time.Now().Add(cfg.Timeout)

	// Phase 1: admit workers. Join order assigns dense IDs.
	workers := int32(cfg.Workers)
	temps := make(map[transport.NodeID]int32) // temp -> assigned
	addrs := make(map[int32]string)
	for int32(len(addrs)) < workers {
		env, err := recvDeadline(ep, deadline)
		if err != nil {
			return nil, fmt.Errorf("wirenode: waiting for %d workers, have %d: %w",
				workers, len(addrs), err)
		}
		h, ok := env.Payload.(Hello)
		if !ok {
			continue // late ProbeAck from a previous run, etc.
		}
		if _, seen := temps[env.From]; seen {
			continue // duplicate Hello from a resend before our ack landed
		}
		id := int32(len(addrs)) + 1
		temps[env.From] = id
		addrs[id] = h.Addr
		tab.set(env.From, h.Addr)
		tab.set(transport.NodeID(id), h.Addr)
	}
	full := map[int32]string{0: net.WireAddr()}
	for id, a := range addrs {
		full[id] = a
	}
	for temp, id := range temps {
		ep.Send(temp, Assign{ID: id, Workers: workers, Table: full})
	}

	// Phase 2: ship partitions, chunked so no frame nears the size cap.
	parts := make(map[transport.NodeID][]Edge)
	for _, e := range cfg.Edges {
		o := owner(e.Src, workers)
		parts[o] = append(parts[o], e)
		if len(parts[o]) == chunk {
			ep.Send(o, Load{Edges: parts[o]})
			parts[o] = nil
		}
	}
	for o, rest := range parts {
		if len(rest) > 0 {
			ep.Send(o, Load{Edges: rest})
		}
	}
	for id := int32(1); id <= workers; id++ {
		ep.Send(transport.NodeID(id), LoadDone{Source: cfg.Source})
	}

	// Phase 3: double probe until global quiescence. Termination holds when
	// two consecutive epochs agree on the same sent==recv totals with every
	// inbox idle — no relaxation in flight anywhere.
	acks := make(map[int32]ProbeAck)
	var epoch int64
	var prevSent, prevRecv int64 = -1, -2
	var stable bool
	ticker := time.NewTicker(cfg.ProbeEvery)
	defer ticker.Stop()
	for !stable {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("wirenode: termination probe timed out (epoch %d)", epoch)
		}
		epoch++
		for id := int32(1); id <= workers; id++ {
			ep.Send(transport.NodeID(id), Probe{Epoch: epoch})
		}
		for have := 0; have < cfg.Workers; {
			env, err := recvDeadline(ep, deadline)
			if err != nil {
				return nil, fmt.Errorf("wirenode: probe epoch %d: %w", epoch, err)
			}
			if a, ok := env.Payload.(ProbeAck); ok && a.Epoch == epoch {
				if _, dup := acks[int32(env.From)]; !dup {
					acks[int32(env.From)] = a
					have++
				}
			}
		}
		var sent, recv int64
		for _, a := range acks {
			sent += a.Sent
			recv += a.Recv
		}
		if sent == recv && sent == prevSent && recv == prevRecv {
			stable = true
		}
		prevSent, prevRecv = sent, recv
		for k := range acks {
			delete(acks, k)
		}
		if !stable {
			<-ticker.C
		}
	}

	// Phase 4: collect and dismiss.
	for id := int32(1); id <= workers; id++ {
		ep.Send(transport.NodeID(id), Fetch{})
	}
	dists := make(map[uint64]int64)
	for have := 0; have < cfg.Workers; {
		env, err := recvDeadline(ep, deadline)
		if err != nil {
			return nil, fmt.Errorf("wirenode: collecting results: %w", err)
		}
		if r, ok := env.Payload.(Result); ok {
			for v, d := range r.Dists {
				dists[v] = d
			}
			have++
		}
	}
	for id := int32(1); id <= workers; id++ {
		ep.Send(transport.NodeID(id), Quit{})
	}
	// Give the quit frames a moment to reach the socket before the deferred
	// Close tears the wire down; workers also exit on their read deadline.
	time.Sleep(20 * time.Millisecond)
	return dists, nil
}

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// MasterAddr is the master's seed address.
	MasterAddr string
	// ListenAddr is this worker's own listener (default "127.0.0.1:0").
	ListenAddr string
	// Faults optionally injects socket chaos on this worker's connections.
	Faults *transport.WireFaults
	// Timeout bounds the whole run (default 2m).
	Timeout time.Duration
}

// RunWorker joins the master, computes its share of the fixed point, serves
// the result and returns when dismissed.
func RunWorker(cfg WorkerConfig) error {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	tab := newTable()
	tab.set(masterID, cfg.MasterAddr)
	net, err := newNet(cfg.ListenAddr, tab, cfg.Faults, int64(os.Getpid()))
	if err != nil {
		return err
	}
	defer net.Close()
	self := net.WireAddr()
	temp := net.Register(tempID(self))
	temp.Send(masterID, Hello{Addr: self})
	deadline := time.Now().Add(cfg.Timeout)

	var assign Assign
	for {
		env, err := recvDeadline(temp, deadline)
		if err != nil {
			return fmt.Errorf("wirenode: waiting for assignment: %w", err)
		}
		if a, ok := env.Payload.(Assign); ok {
			assign = a
			break
		}
	}
	for id, addr := range assign.Table {
		tab.set(transport.NodeID(id), addr)
	}
	ep := net.Register(transport.NodeID(assign.ID))

	adj := make(map[uint64][]Edge)
	dist := make(map[uint64]int64)
	out := make(relaxOut)
	var sent, recv int64
	for {
		env, err := recvDeadline(ep, deadline)
		if err != nil {
			return fmt.Errorf("wirenode: worker %d: %w", assign.ID, err)
		}
		switch m := env.Payload.(type) {
		case Load:
			for _, e := range m.Edges {
				adj[e.Src] = append(adj[e.Src], e)
				// The wire dedups but does not reorder: a relaxation can arrive
				// before this chunk (another worker loaded faster), and a
				// resent chunk can arrive after LoadDone. Either way e.Src
				// may already hold a settled distance whose relaxation never
				// saw this edge — propagate over it now, or the subgraph
				// behind it silently drops out of the fixed point while the
				// probe counters still balance.
				if d, ok := dist[e.Src]; ok {
					nd := d + e.W
					if o := owner(e.Dst, assign.Workers); o == transport.NodeID(assign.ID) {
						relaxLocal(&dist, adj, e.Dst, nd, assign, out)
					} else {
						out[o] = append(out[o], Relax{Dst: e.Dst, Dist: nd})
					}
				}
			}
			out.ship(ep, &sent)
		case LoadDone:
			if owner(m.Source, assign.Workers) == transport.NodeID(assign.ID) {
				relaxLocal(&dist, adj, m.Source, 0, assign, out)
				out.ship(ep, &sent)
			}
		case Relaxes:
			recv += int64(len(m))
			for _, r := range m {
				relaxLocal(&dist, adj, r.Dst, r.Dist, assign, out)
			}
			out.ship(ep, &sent)
		case Probe:
			ep.Send(masterID, ProbeAck{Epoch: m.Epoch, Sent: sent, Recv: recv})
		case Fetch:
			ep.Send(masterID, Result{Dists: dist})
		case Quit:
			return nil
		}
	}
}

// relaxOut collects a worker's cross-partition relaxations per owner between
// two ship points.
type relaxOut map[transport.NodeID]Relaxes

// ship sends each owner its relaxations, at most chunk per payload, counting
// them in sent, and empties out.
func (out relaxOut) ship(ep *transport.Endpoint, sent *int64) {
	for to, rs := range out {
		*sent += int64(len(rs))
		for len(rs) > 0 {
			n := min(len(rs), chunk)
			ep.Send(to, rs[:n])
			rs = rs[n:]
		}
		delete(out, to)
	}
}

// relaxLocal is the iterative relaxation core: a worklist of (vertex,
// distance) pairs drained depth-first, queueing cross-partition improvements
// in out and applying local ones in place.
func relaxLocal(dist *map[uint64]int64, adj map[uint64][]Edge, v uint64, d int64,
	assign Assign, out relaxOut) {
	type item struct {
		v uint64
		d int64
	}
	work := []item{{v, d}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if old, ok := (*dist)[it.v]; ok && old <= it.d {
			continue
		}
		(*dist)[it.v] = it.d
		for _, e := range adj[it.v] {
			nd := it.d + e.W
			if o := owner(e.Dst, assign.Workers); o == transport.NodeID(assign.ID) {
				if old, ok := (*dist)[e.Dst]; !ok || nd < old {
					work = append(work, item{e.Dst, nd})
				}
			} else {
				out[o] = append(out[o], Relax{Dst: e.Dst, Dist: nd})
			}
		}
	}
}

// recvDeadline is Recv with an absolute deadline, polled coarsely: the
// transport has no native timed receive, and a 1ms poll is far below every
// timescale that matters here.
func recvDeadline(ep *transport.Endpoint, deadline time.Time) (transport.Envelope, error) {
	for {
		if env, ok := ep.TryRecv(); ok {
			return env, nil
		}
		if time.Now().After(deadline) {
			return transport.Envelope{}, fmt.Errorf("deadline exceeded")
		}
		time.Sleep(time.Millisecond)
	}
}
