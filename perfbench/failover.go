package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/wal"
)

// Workload leader-failover: an open-loop generator on follower replica
// 2 multicasts 64 B messages at a fixed rate to three durable replicas
// in leader order, on the pipelined datapath without packing. A third
// of the way in, the leader (replica 1) fail-stops: its datagrams stop,
// its log keeps only what it had synced, and the survivors must suspect
// it, convict it, install a new view under a new leader, re-sequence
// what was in flight and repair what they missed. It is the only workload that runs those paths;
// they do nothing in steady state.

const (
	failoverRate    = 2000.0
	failoverSuspect = 250 * time.Millisecond
	failoverSender  = 1 // replica 2: it survives, and leads after the failover
	// recoveredAfter is how long after the first post-kill delivery the
	// group counts as recovered, for the rate it then serves.
	recoveredAfter = 500 * time.Millisecond
)

// failoverCycles is how many failovers a run measures, each on a fresh
// bring-up that streams for a share of the run's time with the kill a
// third of the way in. The p99 latency pools every cycle's deliveries;
// p50 and CPU cost are taken by failoverWindow windows of due time at
// the survivors; outage and the recovered rate are medians over the
// cycles; the per-layer counts are the last cycle's (the timings pool
// every cycle).
const (
	failoverCycles = 3
	failoverWindow = 500 * time.Millisecond
)

func runFailover(cfg config) (*outcome, error) {
	m := &meter{}
	o := &outcome{}
	spec := streamSpec{
		order: core.OrderLeader,
		// Packing stays off: under leader order the leader never
		// sequences a follower's packed messages (core's onPacked submits
		// them for ordering without a leader assignment), so they are
		// never delivered. Turn it on here once that is fixed.
		pack:    false,
		suspect: failoverSuspect,
		sender:  failoverSender,
	}
	var bu bringUps
	cycle := time.Duration(cfg.seconds * float64(time.Second) / failoverCycles)
	var outages, served []float64
	var lat []int64
	var w windows
	var msgs int
	var ns int64
	var lr layerRun
	for i := 0; i < failoverCycles; i++ {
		if err := plainStreams(cfg, m, spec, &bu); err != nil {
			return nil, err
		}
		sc, err := bringUpStream(cfg, m, spec)
		if err != nil {
			return nil, err
		}
		bu.note(sc.setup, sc.bootstrap)
		c, err := sc.failoverCycle(cfg, cycle, m, o, &w)
		sc.close()
		if err != nil {
			return nil, err
		}
		lat = append(lat, c.lat...)
		outages = append(outages, float64(c.outage)/1e6)
		served = append(served, c.served)
		msgs += c.msgs
		ns += c.ns
		lr = c.layers
	}
	if err := plainStreams(cfg, m, spec, &bu); err != nil {
		return nil, err
	}
	w.log("leader-failover")
	o.e2e = endToEnd(
		midMean(w.p50)/1e6,
		float64(percentile(lat, 0.99))/1e6,
		float64(msgs)/(float64(ns)/1e9),
		median(served),
		median(outages),
		midMean(w.cpuPerOp),
		maxRSSMB(),
		bu.setupS(),
	)
	o.layer = lr.layers()
	return o, nil
}

// cycleResult is what one failover cycle measured.
type cycleResult struct {
	lat    []int64 // delivery latencies at every replica while it lived
	outage int64
	served float64 // rate served once recovered, derated by any SLO miss
	msgs   int
	ns     int64
	layers layerRun
}

// failoverCycle streams for d through the leader's fail-stop and checks
// the outcome.
func (sc *streamCluster) failoverCycle(cfg config, d time.Duration, m *meter, o *outcome, w *windows) (*cycleResult, error) {
	if err := sc.warmup(failoverSender, m); err != nil {
		return nil, err
	}
	leader := sc.nodes[0]
	survivors := []int{1, 2}
	stopSampler := func() {}
	if cfg.trace {
		m.on.Store(true)
		stopSampler = sc.sampler(streamGroup)
	}
	a := takeSnap(sc.cluster, m)
	n := int(failoverRate * d.Seconds())
	lo := sc.s.alloc(n)
	hi := lo + n
	start := now() + int64(time.Millisecond)
	killAt := start + int64(d/3)
	var tKill int64
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(time.Duration(killAt - now()))
		tKill = leader.crash()
	}()
	var ost offerStats
	stopMarks := marker(failoverWindow)
	sc.s.offer(sc.nodes[failoverSender], streamGroup, lo, hi, failoverRate, start, m, &ost)
	marks := stopMarks()
	<-killed
	sc.s.waitDelivered(survivors, 0, hi, drainLimit)
	stopSampler()
	m.on.Store(false)
	b := takeSnap(sc.cluster, m)
	sc.settle(o, survivors)
	sc.checkLeaderLog(o, leader)
	w.add(sc.s.samples(survivors, lo, hi), marks, len(survivors))

	c := &cycleResult{
		lat:    sc.s.latencies(survivors, lo, hi),
		outage: sc.outage(survivors, lo, hi, tKill),
		layers: layerRun{a: a, b: b, ops: float64(n), m: m, wals: streamReplicas, lag: &ost.lag, refused: ost.refused.Load()},
	}
	for seq := lo; seq < hi; seq++ {
		if at := sc.s.at[0].get(seq); at != 0 {
			c.lat = append(c.lat, at-sc.s.due.get(seq))
		}
	}
	o.check(c.outage > 0, "no survivor delivered a message due after the leader was killed")
	c.msgs, c.ns = sc.s.throughput(survivors, lo, hi)

	// The rate served once recovered, derated by how far its p99 missed
	// the SLO, if it did.
	from := lo
	for from < hi && sc.s.due.get(from) < tKill+c.outage+int64(recoveredAfter) {
		from++
	}
	if from < hi {
		k, d := sc.s.throughput(survivors, from, hi)
		p99 := percentile(sc.s.latencies(survivors, from, hi), 0.99)
		c.served = float64(k) / (float64(d) / 1e9) * math.Min(1, float64(sloP99)/float64(p99))
	}
	return c, nil
}

// outage is the time from the kill until every survivor has delivered a
// message that was due after it.
func (sc *streamCluster) outage(survivors []int, lo, hi int, tKill int64) int64 {
	var worst int64
	for _, r := range survivors {
		first := int64(math.MaxInt64)
		for seq := lo; seq < hi; seq++ {
			if sc.s.due.get(seq) <= tKill {
				continue
			}
			if at := sc.s.at[r].get(seq); at != 0 && at < first {
				first = at
			}
		}
		if first == math.MaxInt64 {
			return 0
		}
		if first-tKill > worst {
			worst = first - tKill
		}
	}
	return worst
}

// checkLeaderLog replays the dead leader's log as a power loss would
// have left it — cut back to what it had synced — and checks that it
// holds every message the leader delivered.
func (sc *streamCluster) checkLeaderLog(o *outcome, leader *node) {
	_ = leader.log.Close() // reports the crash; the log is unusable anyway
	leader.log = nil
	if err := leader.fs.discardUnsynced(); err != nil {
		o.check(false, "leader log: discarding unsynced bytes: %v", err)
		return
	}
	logged, err := replaySeqs(leader.dir)
	if err != nil {
		o.check(false, "leader log: %v", err)
		return
	}
	missing := 0
	for seq := 0; seq < int(sc.s.next.Load()); seq++ {
		if sc.s.at[0].get(seq) != 0 && !logged[seq] {
			missing++
		}
	}
	o.check(missing == 0, "the leader delivered %d messages its synced log does not hold", missing)
}

// replaySeqs recovers the log in dir and returns the stream sequence
// numbers of the deliveries it holds.
func replaySeqs(dir string) (map[int]bool, error) {
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return nil, err
	}
	l, rec, err := wal.Open(wal.Config{FS: dfs, Policy: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer l.Close()
	if rec.TornTail != nil {
		return nil, fmt.Errorf("synced prefix has a torn tail: %v", rec.TornTail)
	}
	seqs := make(map[int]bool)
	for _, r := range rec.Records {
		if r.Type == wal.RecOp && len(r.Op.Payload) == payloadLen {
			seqs[int(binary.BigEndian.Uint64(r.Op.Payload))] = true
		}
	}
	return seqs, nil
}
