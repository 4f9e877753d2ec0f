package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ftcorba"
	"ftmp/internal/gateway"
	"ftmp/internal/giop"
	"ftmp/internal/ids"
	"ftmp/internal/orb"
	"ftmp/internal/runtime"
)

// Workload iiop-durable: closed-loop IIOP clients, one per CPU, call a
// replicated object through the gateway on processor 4. The object
// group has three server replicas in leader order, each made durable by
// ftcorba.AttachWAL (fsync=always) on the loop-affine runtime that
// ftcorba requires. Calls are a seeded mix of 80% add (8 B) and 20% put
// (4 KiB). It is the only workload that crosses the gateway, GIOP,
// ftcorba and the log path that appends and syncs each record on the
// event loop; the ordering wait is a single leader hop and the packet
// rate is low, so the transport barely matters.

const (
	serverOG    = ids.ObjectGroupID(20)
	clientOG    = ids.ObjectGroupID(10)
	objectKey   = "store"
	gatewayProc = ids.ProcessorID(4)
	putPercent  = 20
	putBytes    = 4096
	putKeys     = 64
	// iiopSuspect keeps a replica stalled in fsync from being convicted.
	iiopSuspect = 5 * time.Second
	// trimEvery is the in-memory message log's retention, in requests:
	// the log is the application's to trim (ftcorba never does), and a
	// service that never replays further back than this keeps its memory
	// flat instead of growing with every call.
	trimEvery = 1024
)

var iiopConn = ids.ConnectionID{ClientDomain: 1, ClientGroup: clientOG, ServerDomain: 1, ServerGroup: serverOG}

// store is the replicated servant: a sum that adds update and a table
// of values that puts overwrite, plus how often each call was applied.
type store struct {
	mu      sync.Mutex
	sum     int64
	applied map[uint32]int // call id -> times applied
	values  map[uint32]uint64
	first   int64 // run-clock time of the first invocation

	m   *meter
	req *ids.RequestNum // request number of the delivery being processed
	ids *callIndex
}

func newStore(m *meter, req *ids.RequestNum, ix *callIndex) *store {
	return &store{applied: make(map[uint32]int), values: make(map[uint32]uint64), m: m, req: req, ids: ix}
}

func (s *store) Invoke(op string, args []byte) ([]byte, *orb.Exception) {
	t0 := s.m.start()
	defer s.m.done(&s.m.servant, t0)
	d := giop.NewDecoder(args, false)
	w := d.ULongLong()
	id := uint32(w >> 32)
	e := giop.NewEncoder(false)
	e.ULong(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.first == 0 {
		s.first = now()
	}
	switch op {
	case "add":
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		s.sum += int64(int32(uint32(w)))
		s.applied[id]++
		e.LongLong(s.sum)
	case "put":
		v := d.OctetSeq()
		if d.Err() != nil {
			return nil, orb.ExcUnknown
		}
		h := fnv.New64a()
		h.Write(v)
		s.values[uint32(w)] = h.Sum64()
		s.applied[id]++
		e.ULong(uint32(len(v)))
	default:
		return nil, orb.ExcBadOperation
	}
	if t0 != 0 {
		s.ids.note(*s.req, id)
	}
	return e.Bytes(), nil
}

// callIndex maps the request numbers the gateway assigned to the call
// ids the clients chose, so a call's replica spans can be found.
type callIndex struct {
	mu    sync.Mutex
	byReq map[ids.RequestNum]uint32
}

func (x *callIndex) note(r ids.RequestNum, id uint32) {
	x.mu.Lock()
	x.byReq[r] = id
	x.mu.Unlock()
}

// iiopCluster is one bring-up of the gateway and its object group.
type iiopCluster struct {
	*cluster
	gw      *gateway.Gateway
	clients []*orb.Client
	stores  []*store
	group   ids.GroupID
	// deliveries holds, per node, the traced OnDeliver spans keyed by
	// request number; each is written only by its node's event loop.
	deliveries [][]span
	calls      callIndex
	gens       []*callGen
	setup      time.Duration
	bootstrap  time.Duration
}

// callGen is one client's seeded call sequence and its acknowledgments.
type callGen struct {
	id     uint32
	next   uint32
	rng    *rand.Rand
	acked  map[uint32]int32 // add call id -> delta
	lat    []sample
	spans  []span // traced client calls, keyed by call id
	failed int64
	errs   []string
}

func newCallGen(seed int64, client int) *callGen {
	return &callGen{
		id:    uint32(client+1) << 24,
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		acked: make(map[uint32]int32),
	}
}

// call makes the client's next call and checks its reply.
func (g *callGen) call(cli *orb.Client, m *meter) {
	g.next++
	id := g.id | g.next
	e := giop.NewEncoder(false)
	op := "add"
	var delta int32
	if g.rng.Intn(100) < putPercent {
		op = "put"
		e.ULongLong(uint64(id)<<32 | uint64(g.rng.Intn(putKeys)))
		v := make([]byte, putBytes-12)
		g.rng.Read(v)
		e.OctetSeq(v)
	} else {
		delta = int32(g.rng.Intn(2001) - 1000)
		e.ULongLong(uint64(id)<<32 | uint64(uint32(delta)))
	}
	t0 := now()
	out, err := cli.Invoke(objectKey, op, e.Bytes())
	t1 := now()
	g.lat = append(g.lat, sample{at: t1, lat: t1 - t0})
	if m.on.Load() {
		g.spans = append(g.spans, span{key: uint64(id), start: t0, end: t1})
	}
	if err != nil {
		g.fail("call %x (%s): %v", id, op, err)
		return
	}
	d := giop.NewDecoder(out, false)
	echo := d.ULong()
	if op == "add" {
		d.LongLong()
	} else if n := d.ULong(); n != putBytes-12 {
		g.fail("call %x (put): reply says %d bytes stored", id, n)
		return
	}
	if d.Err() != nil || echo != id {
		g.fail("call %x (%s): undecodable or mismatched reply", id, op)
		return
	}
	if op == "add" {
		g.acked[id] = delta
	}
}

func (g *callGen) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < 5 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

func bringUpIIOP(cfg config, m *meter) (*iiopCluster, error) {
	t0 := now()
	c, err := newCluster(cfg.workdir, m)
	if err != nil {
		return nil, err
	}
	ic := &iiopCluster{cluster: c, deliveries: make([][]span, 4)}
	ic.calls.byReq = make(map[ids.RequestNum]uint32)
	servers := ids.NewMembership(1, 2, 3)
	infras := make([]*ftcorba.Infra, 4)
	for i := 0; i < 4; i++ {
		p := ids.ProcessorID(i + 1)
		nc := core.DefaultConfig(p)
		nc.Order = core.OrderLeader
		nc.PGMP.SuspectTimeout = int64(iiopSuspect)
		nc.ObjectGroups = map[ids.ObjectGroupID]ids.Membership{serverOG: servers}
		var cur ids.RequestNum
		n, err := c.add(nodeSpec{
			cfg: nc,
			callbacks: func(n *node) core.Callbacks {
				return core.Callbacks{Deliver: func(d core.Delivery) {
					cur = d.RequestNum
					t := m.start()
					infras[i].OnDeliver(d, n.r.Now())
					if d.RequestNum%trimEvery == 0 {
						infras[i].TrimLog(iiopConn, d.RequestNum-trimEvery)
					}
					if t != 0 && m.on.Load() {
						ic.deliveries[i] = append(ic.deliveries[i], span{key: uint64(d.RequestNum), start: t, end: now()})
						m.done(&m.deliver, t)
					}
				}}
			},
			opts:    runtime.Options{}, // ftcorba needs its callbacks on the event loop
			durable: p != gatewayProc,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		infras[i] = ftcorba.New(p, 1, n.r.Node)
		if servers.Contains(p) {
			st := newStore(m, &cur, &ic.calls)
			ic.stores = append(ic.stores, st)
			infras[i].Serve(serverOG, objectKey, st)
			infras[i].AttachWAL(n.log, nil)
		} else {
			infras[i].RegisterObjectKey(serverOG, objectKey)
		}
	}
	fail := func(err error) (*iiopCluster, error) {
		ic.close()
		return nil, err
	}
	if err := c.link(); err != nil {
		return fail(err)
	}
	gwNode := c.nodes[3]
	gwNode.r.Do(func(_ *core.Node, now int64) {
		infras[3].Connect(now, iiopConn, core.DefaultConfig(gatewayProc).DomainAddr, ids.NewMembership(gatewayProc))
	})
	established := waitFor(10*time.Second, func() bool {
		ok := false
		gwNode.r.Do(func(nd *core.Node, _ int64) {
			if st := nd.ConnectionState(iiopConn); st != nil && st.Established {
				ok = true
				ic.group = st.Group
			}
		})
		return ok
	})
	if !established {
		return fail(fmt.Errorf("the logical connection was not established within 10s"))
	}
	created := now()
	ic.gw = gateway.New(gwNode.r, infras[3], iiopConn)
	addr, err := ic.gw.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	for k := 0; k < goruntime.NumCPU(); k++ {
		cli, err := orb.Dial(addr)
		if err != nil {
			return fail(err)
		}
		ic.clients = append(ic.clients, cli)
		ic.gens = append(ic.gens, newCallGen(cfg.seed, k))
	}
	g := ic.gens[0]
	g.call(ic.clients[0], m)
	if g.failed > 0 {
		return fail(fmt.Errorf("first call: %s", g.errs[0]))
	}
	served := now()
	if !waitFor(10*time.Second, func() bool { return ic.lastFirst() != 0 }) {
		return fail(fmt.Errorf("a replica never executed the first call"))
	}
	ic.setup = time.Duration(served - t0)
	ic.bootstrap = time.Duration(ic.lastFirst() - created)
	return ic, nil
}

// lastFirst is when the last replica executed its first call, or 0 if
// one has not yet.
func (ic *iiopCluster) lastFirst() int64 {
	var last int64
	for _, st := range ic.stores {
		st.mu.Lock()
		f := st.first
		st.mu.Unlock()
		if f == 0 {
			return 0
		}
		if f > last {
			last = f
		}
	}
	return last
}

func (ic *iiopCluster) close() {
	for _, cli := range ic.clients {
		cli.Close()
	}
	if ic.gw != nil {
		ic.gw.Close()
	}
	ic.cluster.close()
}

// iiopCycles is how many fresh bring-ups a run measures, each for an
// equal share of the run's time: iiopWarmup of calls, then iiopWindows
// windows whose figures are pooled across the cycles. Two otherwise
// identical clusters can differ by a tenth in throughput, so one
// cluster per run would carry that into the run's figures.
const (
	iiopCycles  = 8
	iiopWindows = 3
	iiopWarmup  = 250 * time.Millisecond
)

func runIIOP(cfg config) (*outcome, error) {
	m := &meter{}
	o := &outcome{}
	var bu bringUps
	plain := func() error {
		for i := 0; i < plainBringUps; i++ {
			ic, err := bringUpIIOP(cfg, m)
			if err != nil {
				return err
			}
			bu.note(ic.setup, ic.bootstrap)
			ic.close()
		}
		return nil
	}
	d := time.Duration(cfg.seconds * float64(time.Second) / iiopCycles)
	var w windows
	var lr layerRun
	for i := 0; i < iiopCycles; i++ {
		if err := plain(); err != nil {
			return nil, err
		}
		ic, err := bringUpIIOP(cfg, m)
		if err != nil {
			return nil, err
		}
		bu.note(ic.setup, ic.bootstrap)
		lr = ic.cycle(cfg, d, m, o, &w)
		ic.close()
	}
	rss := maxRSSMB()
	if err := plain(); err != nil {
		return nil, err
	}
	p99, throughput := midMean(w.p99), midMean(w.rate)
	w.log("iiop-durable")
	o.e2e = endToEnd(
		midMean(w.p50)/1e6,
		p99/1e6,
		throughput,
		throughput*math.Min(1, float64(sloP99)/p99),
		bu.bootMs(),
		midMean(w.cpuPerOp),
		rss,
		bu.setupS(),
	)
	o.layer = lr.layers()
	return o, nil
}

// cycle runs the clients against ic for d, adds the windows after the
// warm-up to w, checks the outcome, and returns what the per-layer
// metrics are computed from.
func (ic *iiopCluster) cycle(cfg config, d time.Duration, m *meter, o *outcome, w *windows) layerRun {
	stopSampler := func() {}
	if cfg.trace {
		m.on.Store(true)
		stopSampler = ic.sampler(ic.group)
	}
	a := takeSnap(ic.cluster, m)
	calls0 := ic.callsMade()
	for _, g := range ic.gens {
		g.lat = nil // the set-up call is not measured
	}
	warm := min(iiopWarmup, d/4)
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for k := range ic.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for now() < deadline {
				ic.gens[k].call(ic.clients[k], m)
			}
		}(k)
	}
	time.Sleep(warm)
	stopMarks := marker((d - warm) / iiopWindows)
	time.Sleep(time.Duration(deadline - now()))
	marks := stopMarks()
	wg.Wait()
	stopSampler()
	m.on.Store(false)
	b := takeSnap(ic.cluster, m) // its Runner.Do calls also order the loops' span writes before the reads below
	calls := float64(ic.callsMade() - calls0)

	o.attempted += ic.callsMade()
	var samples []sample
	for _, g := range ic.gens {
		o.failed += g.failed
		for _, e := range g.errs {
			o.check(false, "%s", e)
		}
		samples = append(samples, g.lat...)
	}
	w.add(samples, marks, 1)
	ic.checkState(o)
	return layerRun{a: a, b: b, ops: calls, m: m, wals: len(ic.stores), pathSelf: ic.pathSelf()}
}

func (ic *iiopCluster) callsMade() int64 {
	var n int64
	for _, g := range ic.gens {
		n += int64(g.next)
	}
	return n
}

// checkState waits for every replica to apply every call, then checks
// that each acknowledged add was applied exactly once everywhere and
// that the replicas hold identical state.
func (ic *iiopCluster) checkState(o *outcome) {
	want := int(ic.callsMade())
	caughtUp := waitFor(10*time.Second, func() bool {
		for _, st := range ic.stores {
			st.mu.Lock()
			n := len(st.applied)
			st.mu.Unlock()
			if n < want {
				return false
			}
		}
		return true
	})
	o.check(caughtUp, "a replica did not apply all %d calls within 10s", want)
	var sum int64
	for _, g := range ic.gens {
		for _, d := range g.acked {
			sum += int64(d)
		}
	}
	ref := ic.stores[0]
	for i, st := range ic.stores {
		st.mu.Lock()
		o.check(st.sum == sum, "replica %d: sum %d, acknowledged adds total %d", i+1, st.sum, sum)
		for _, g := range ic.gens {
			for id := range g.acked {
				o.check(st.applied[id] == 1, "replica %d applied acknowledged add %x %d times", i+1, id, st.applied[id])
			}
		}
		o.check(len(st.applied) == want, "replica %d applied %d distinct calls, %d were made", i+1, len(st.applied), want)
		same := len(st.values) == len(ref.values)
		for k, v := range st.values {
			same = same && ref.values[k] == v
		}
		o.check(same, "replica %d holds other put values than replica 1", i+1)
		st.mu.Unlock()
	}
}

// pathSelf returns, per traced call, the client's span minus the part
// of it covered by the OnDeliver spans the call caused at any node.
func (ic *iiopCluster) pathSelf() []int64 {
	ic.calls.mu.Lock()
	reqOf := make(map[uint32]ids.RequestNum, len(ic.calls.byReq))
	for r, id := range ic.calls.byReq {
		reqOf[id] = r
	}
	ic.calls.mu.Unlock()
	byReq := make(map[uint64][]span)
	for _, ds := range ic.deliveries {
		for _, s := range ds {
			byReq[s.key] = append(byReq[s.key], s)
		}
	}
	var out []int64
	for _, g := range ic.gens {
		for _, c := range g.spans {
			r, ok := reqOf[uint32(c.key)]
			if !ok {
				continue
			}
			out = append(out, c.end-c.start-coveredNs(c.start, c.end, byReq[uint64(r)]))
		}
	}
	return out
}
