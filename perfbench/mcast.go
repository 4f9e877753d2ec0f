package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/trace"
)

// Workload mcast-open: an open-loop generator on replica 1 multicasts
// 64 B messages to three durable replicas in Lamport order with every
// datapath stage and packing on. It is the workload of the per-packet
// costs (syscalls, decode, receive ring) and of the Lamport ordering
// wait, which is most of the latency at the nominal rate; it bypasses
// the gateway and ftcorba.
//
// The run offers the nominal rate for a share of its time — the
// latency, CPU and per-layer metrics come from there — and spends the
// rest finding the knee. On the last nominal cluster an ascending ladder of
// rungs nominal×1.25^k, each offered for stepDuration, climbs until a
// rung misses the SLO (a near miss — p99 under twice the SLO, nothing
// dropped — is retried once: a lone stall on a busy host must not end
// the climb). A staircase then walks from the last passing rung: down
// after each miss, up after each pass, its step halving at each
// reversal down to 2.5% and doubling after three moves the same way.
// Each staircase step runs on a fresh cluster, because an overloaded
// group's aftermath (repairs, a grown backlog) would otherwise fail the
// step after it. The capacity is the median rate the staircase visited
// from its first reversal on: the rate at which half the steps meet the
// SLO. One step's verdict swings with the moment the backlog runs away,
// so the many short steps are what make the figure steady.

const (
	mcastNominal  = 8000.0
	nominalShare  = 0.3
	nominalWindow = 500 * time.Millisecond
	ladderGrowth  = 1.25
	minStair      = 1.025
	stepDuration  = 500 * time.Millisecond
	// stepGrace is how long after a step's last message is due its
	// deliveries are awaited before the step is judged; later ones count
	// as infinitely late.
	stepGrace = time.Second
	// drainLimit bounds the wait for a congested group to deliver
	// everything before it is checked.
	drainLimit = 30 * time.Second
	// mcastSuspect keeps a loaded replica from being convicted: this
	// workload measures the datapath, not failure detection.
	mcastSuspect = 5 * time.Second
)

// step is one rate offered for one stepDuration (or the nominal phase).
type step struct {
	rate  float64
	p99   int64  // ns; math.MaxInt64 when over 1% were not delivered in time
	drops uint64 // receive-ring and send-shard overflows
	pass  bool
}

// mcastRun is one run of the workload.
type mcastRun struct {
	cfg  config
	m    *meter
	o    *outcome
	spec streamSpec
	bu   bringUps
}

// nominalClusters is how many fresh bring-ups share the nominal phase.
// Two otherwise identical clusters can differ by a quarter in latency
// and CPU cost, so the phase pools the windows of several; the ladder
// climbs on the last. The per-layer counts are the last one's (the
// timings pool all).
const nominalClusters = 8

func runMcast(cfg config) (*outcome, error) {
	r := &mcastRun{
		cfg:  cfg,
		m:    &meter{},
		o:    &outcome{},
		spec: streamSpec{order: core.OrderLamport, pack: true, suspect: mcastSuspect},
	}
	m, o, rs := r.m, r.o, allReplicas()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	end := now() + int64(budget)
	if err := plainStreams(cfg, m, r.spec, &r.bu); err != nil {
		return nil, err
	}
	var (
		sc      *streamCluster
		nominal step
		w       windows
		lr      layerRun
		msgs    int
		ns      int64
	)
	defer func() {
		if sc != nil {
			sc.close()
		}
	}()
	for i := 0; i < nominalClusters; i++ {
		if sc != nil {
			sc.settle(o, rs)
			sc.close()
		}
		var err error
		if sc, err = r.bringUp(); err != nil {
			return nil, err
		}
		stopSampler := func() {}
		if cfg.trace {
			m.on.Store(true)
			stopSampler = sc.sampler(streamGroup)
		}
		a := takeSnap(sc.cluster, m)
		var ost offerStats
		stopMarks := marker(nominalWindow)
		lo, hi := sc.offerFor(mcastNominal, time.Duration(nominalShare*float64(budget)/nominalClusters), m, &ost)
		marks := stopMarks()
		st := sc.judge(mcastNominal, lo, hi)
		stopSampler()
		m.on.Store(false)
		b := takeSnap(sc.cluster, m)
		w.add(sc.s.samples(rs, lo, hi), marks, len(rs))
		k, d := sc.s.throughput(rs, lo, hi)
		msgs, ns = msgs+k, ns+d
		nominal.drops += st.drops
		lr = layerRun{a: a, b: b, ops: float64(hi - lo), m: m, wals: streamReplicas, lag: &ost.lag, refused: ost.refused.Load()}
	}
	o.layer = lr.layers()
	// The nominal phase is judged, like it is reported, by its windowed
	// p99: over its length one stall of a busy host would otherwise fail
	// it.
	p99 := midMean(w.p99)
	nominal.rate, nominal.p99 = mcastNominal, int64(p99)
	nominal.pass = p99 <= float64(sloP99) && nominal.drops == 0
	// The capacity search overloads the group on purpose; footprint and
	// CPU cost are those of serving the nominal rate.
	rss := maxRSSMB()

	capacity, err := r.capacity(sc, nominal, end)
	sc = nil // capacity settled and closed it
	if err != nil {
		return nil, err
	}
	if err := plainStreams(cfg, m, r.spec, &r.bu); err != nil {
		return nil, err
	}
	w.log("mcast-open")
	o.e2e = endToEnd(
		midMean(w.p50)/1e6,
		p99/1e6,
		float64(msgs)/(float64(ns)/1e9),
		capacity,
		r.bu.bootMs(),
		midMean(w.cpuPerOp),
		rss,
		r.bu.setupS(),
	)
	return o, nil
}

// bringUp starts a fresh cluster, notes its bring-up and warms it up.
func (r *mcastRun) bringUp() (*streamCluster, error) {
	sc, err := bringUpStream(r.cfg, r.m, r.spec)
	if err != nil {
		return nil, err
	}
	r.bu.note(sc.setup, sc.bootstrap)
	if err := sc.warmup(0, r.m); err != nil {
		sc.close()
		return nil, err
	}
	return sc, nil
}

// capacity climbs the ladder on sc from the nominal step to the first
// rung that misses the SLO, settles and closes sc, then runs the
// staircase until end and returns the median staircase rate (the last
// passing rung if time ran out first; the nominal rate scaled down by
// its miss if even that missed).
func (r *mcastRun) capacity(sc *streamCluster, nominal step, end int64) (float64, error) {
	var trail []string
	defer func() { fmt.Fprintln(os.Stderr, "capacity steps:", strings.Join(trail, " ")) }()
	rs := allReplicas()
	try := func(sc *streamCluster, rate float64) step {
		if !sc.s.waitDelivered(rs, 0, int(sc.s.next.Load()), drainLimit) {
			return step{rate: rate, p99: math.MaxInt64}
		}
		var ost offerStats
		lo, hi := sc.offerFor(rate, stepDuration, r.m, &ost)
		st := sc.judge(rate, lo, hi)
		trail = append(trail, fmt.Sprintf("%.0f/%.1fms/%v", st.rate, float64(st.p99)/1e6, st.pass))
		return st
	}
	rate := nominal.rate
	for nominal.pass && now() < end {
		st := try(sc, rate*ladderGrowth)
		if !st.pass && st.p99 < 2*int64(sloP99) && st.drops == 0 {
			st = try(sc, rate*ladderGrowth) // a near miss may be one stall: retry it once
		}
		if !st.pass {
			break
		}
		rate *= ladderGrowth
	}
	sc.settle(r.o, rs)
	sc.close()
	if !nominal.pass {
		return nominal.rate * math.Min(1, float64(sloP99)/float64(nominal.p99)), nil
	}

	var visited []float64
	stair, run, lastUp := math.Sqrt(ladderGrowth), 0, true
	for now() < end {
		sc, err := r.bringUp()
		if err != nil {
			return 0, err
		}
		up := try(sc, rate).pass
		sc.settle(r.o, rs)
		sc.close()
		if len(visited) > 0 || (up != lastUp && run > 0) {
			visited = append(visited, rate)
		}
		switch {
		case run > 0 && up != lastUp:
			stair, run = math.Max(math.Sqrt(stair), minStair), 1
		case run >= 3:
			stair, run = math.Min(stair*stair, ladderGrowth), run+1
		default:
			run++
		}
		lastUp = up
		if up {
			rate *= stair
		} else {
			rate /= stair
		}
	}
	if len(visited) == 0 {
		return rate, nil
	}
	return median(visited), nil
}

// offerFor offers rate for d from replica 1 and returns the messages it
// sent.
func (sc *streamCluster) offerFor(rate float64, d time.Duration, m *meter, ost *offerStats) (lo, hi int) {
	n := int(rate * d.Seconds())
	lo = sc.s.alloc(n)
	sc.drops0 = overflowDrops()
	sc.s.offer(sc.nodes[0], streamGroup, lo, lo+n, rate, now()+int64(time.Millisecond), m, ost)
	return lo, lo + n
}

// judge waits up to stepGrace for messages [lo, hi), the last ones
// offered at rate, to be delivered everywhere and judges them against
// the SLO.
func (sc *streamCluster) judge(rate float64, lo, hi int) step {
	rs := allReplicas()
	sc.s.waitDelivered(rs, lo, hi, stepGrace)
	p99 := percentile(sc.s.latencies(rs, lo, hi), 0.99)
	drops := overflowDrops() - sc.drops0
	return step{rate: rate, p99: p99, drops: drops, pass: p99 <= int64(sloP99) && drops == 0}
}

// overflowDrops counts the datagrams the runtime's receive rings and
// send shards have dropped.
func overflowDrops() uint64 {
	return trace.Counter("runtime.rx_overflow_drops") + trace.Counter("runtime.tx_overflow_drops")
}
