package harness

// Experiment E14: the pipelined runtime datapath, end to end.
//
// Unlike E1-E13, which run on the deterministic simulated network, E14
// measures the real runtime over real UDP sockets on the loopback
// interface with a real write-ahead log (fsync=always on a temporary
// directory), on the durable cluster of udpcluster.go. Three replicas
// form a group; one of them multicasts a windowed stream of small
// messages and we measure the sustained totally-ordered, durable
// delivery rate plus the send-to-deliver latency distribution at the
// sender.
//
// Two modes run back to back on identical hardware:
//
//	baseline  — the zero runtime.Options plus the WAL: decode, protocol,
//	            WAL commit and the application callback all on the
//	            event loop, one fsync per delivery.
//	pipelined — parallel receive/decode workers, async ordered delivery
//	            executor with WAL group commit (one fsync per batch),
//	            sharded sends.
//
// The interesting columns are msg/s (the pipeline's reason to exist),
// the fsync count (group commit's amortization made visible) and the
// latency percentiles (batching must not wreck tail latency).

import (
	"fmt"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
)

// E14Result is one mode's measurement.
type E14Result struct {
	Mode          string
	Msgs          int
	Seconds       float64
	Throughput    float64 // sustained delivered msg/s at the sender
	P50, P95, P99 float64 // send->deliver latency, milliseconds
	Fsyncs        uint64
	GroupCommits  uint64
	RxDrops       uint64
	Err           error
}

const (
	e14Group  = ids.GroupID(1400)
	e14Window = 128 // sender keeps this many messages in flight
)

// RunE14 measures one mode. pipelined selects the runtime datapath;
// everything else (group, transport, WAL policy, load) is identical.
func RunE14(pipelined bool, msgs int) E14Result {
	mode, opts := "baseline", runtime.Options{}
	if pipelined {
		mode, opts = "pipelined", udpPipelined
	}
	res := E14Result{Mode: mode, Msgs: msgs}
	fail := func(err error) E14Result { res.Err = err; return res }

	c, err := newUDPCluster(udpSpec{
		name: "e14-" + mode, n: 3, group: e14Group, suspect: udpNoConvict, opts: opts, msgs: msgs,
		deliver: func(c *udpCluster, i, seq int, _ core.Delivery) {
			if i == 0 {
				c.sample(seq)
			}
		},
	})
	if err != nil {
		return fail(err)
	}
	defer c.close()

	// Windowed sender: at most e14Window messages beyond what this node
	// has delivered itself; retries when the core's send queue pushes
	// back.
	sender := c.nodes[0]
	send := func(seq int) error {
		for {
			for int64(seq)-sender.got.Load() >= e14Window {
				time.Sleep(50 * time.Microsecond)
			}
			if c.send(0, seq, ids.ConnectionID{}, 0) == nil {
				return nil
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := c.warmup(0, send); err != nil {
		return fail(err)
	}
	start := time.Now()
	for seq := udpWarmup; seq < c.total; seq++ {
		_ = send(seq) // never fails: it retries
	}
	elapsed, err := c.finish(start)
	if err != nil {
		return fail(err)
	}
	// Let the other replicas finish before counting their fsyncs.
	c.await(30*time.Second, c.total, 1, 2)
	if err := c.shutdown(); err != nil {
		return fail(err)
	}

	res.Seconds = elapsed.Seconds()
	res.Throughput = float64(msgs) / res.Seconds
	res.P50 = c.lat.P50()
	res.P95 = c.lat.P95()
	res.P99 = c.lat.P99()
	res.Fsyncs = trace.Counter("wal.fsyncs")
	res.GroupCommits = trace.Counter("wal.group_commits")
	res.RxDrops = trace.Counter("runtime.rx_overflow_drops")
	return res
}

// E14Pipeline regenerates experiment E14: both modes back to back, with
// the pipelined row reporting its speedup over the baseline.
func E14Pipeline(msgs int) *trace.Table {
	tb := trace.NewTable(
		"E14: pipelined runtime vs single-loop baseline (3 durable replicas, UDP loopback, fsync=always)",
		"mode", "msgs", "elapsed s", "msg/s", "p50 ms", "p95 ms", "p99 ms", "fsyncs", "group commits", "rx drops", "vs baseline")
	base := RunE14(false, msgs)
	pipe := RunE14(true, msgs)
	row := func(r E14Result, speedup float64) {
		if r.Err != nil {
			tb.AddRow(r.Mode, r.Msgs, "FAILED: "+r.Err.Error(), "-", "-", "-", "-", "-", "-", "-", "-")
			return
		}
		tb.AddRow(r.Mode, r.Msgs,
			fmt.Sprintf("%.2f", r.Seconds),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", r.P50),
			fmt.Sprintf("%.2f", r.P95),
			fmt.Sprintf("%.2f", r.P99),
			r.Fsyncs, r.GroupCommits, r.RxDrops,
			fmt.Sprintf("%.2fx", speedup))
	}
	row(base, 1.0)
	speedup := 0.0
	if base.Err == nil && pipe.Err == nil && base.Throughput > 0 {
		speedup = pipe.Throughput / base.Throughput
	}
	row(pipe, speedup)
	return tb
}
