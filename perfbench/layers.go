package main

import (
	goruntime "runtime"
	"syscall"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/trace"
)

// snap is the process and protocol state at one instant; the per-layer
// metrics are differences between the snapshot that opens the measured
// phase and the one that closes it.
type snap struct {
	at       int64
	cpu      time.Duration
	ctr      map[string]uint64
	core     core.Stats
	alloc    uint64
	mallocs  uint64
	numGC    uint32
	fsyncs   uint64
	busy     int64
	walBytes int64
	txBytes  int64
	spans    uint64
	delivers uint64
}

func takeSnap(c *cluster, m *meter) snap {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return snap{
		at:       now(),
		cpu:      cpuTime(),
		ctr:      trace.Counters(),
		core:     c.stats(),
		alloc:    ms.TotalAlloc,
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		fsyncs:   m.fsyncs.Load(),
		busy:     m.busy.Load(),
		walBytes: m.walBytes.Load(),
		txBytes:  m.txBytes.Load(),
		spans:    m.spans.Load(),
		delivers: m.deliver.count(),
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on linux
}

// gcPauseP99 is the p99 of the stop-the-world pauses of the GC cycles
// run since a (the runtime keeps the last 256).
func gcPauseP99(a uint32) time.Duration {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	n := int(ms.NumGC - a)
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	pauses := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		pauses = append(pauses, int64(ms.PauseNs[(int(ms.NumGC)-1-i+len(ms.PauseNs))%len(ms.PauseNs)]))
	}
	return time.Duration(percentile(pauses, 0.99))
}

// spanCost measures what recording one timed interval costs, for the
// tracing-overhead estimate.
func spanCost() float64 {
	var h hist
	const n = 200000
	t0 := now()
	for i := 0; i < n; i++ {
		s := now()
		h.add(now() - s)
	}
	return float64(now()-t0) / n
}

// layerRun is everything the per-layer metrics are computed from.
type layerRun struct {
	a, b     snap
	ops      float64 // operations the measured phase attempted
	m        *meter
	wals     int     // durable logs during the measured phase
	lag      *hist   // open-loop generator lateness; nil for a closed loop
	refused  int64   // sends the core refused (and the generator retried)
	pathSelf []int64 // gateway self time per call, ns (iiop only)
}

// layers computes the per-layer metrics, in their declared order.
func (l layerRun) layers() []metric {
	a, b, m := l.a, l.b, l.m
	ops := l.ops
	if ops < 1 {
		ops = 1
	}
	ctr := func(name string) float64 { return float64(b.ctr[name] - a.ctr[name]) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	wall := float64(b.at - a.at)
	fsyncs := float64(b.fsyncs - a.fsyncs)
	cs := func(f func(s core.Stats) uint64) float64 { return float64(f(b.core) - f(a.core)) }
	sent := cs(func(s core.Stats) uint64 { return s.MessagesSent })
	var lagP99 float64
	if l.lag != nil {
		lagP99 = l.lag.quantile(0.99) / 1e6
	}
	cpu := float64(b.cpu - a.cpu)
	overhead := ratio(float64(b.spans-a.spans)*spanCost(), cpu)

	return []metric{
		{"wal.fsyncs_per_op", "count/op", fsyncs / ops},
		{"wal.fsync_us_p50", "us", us(&m.fsync, 0.5)},
		{"wal.fsync_us_p99", "us", us(&m.fsync, 0.99)},
		{"wal.fsync_busy_frac", "frac", ratio(float64(b.busy-a.busy), wall*float64(l.wals))},
		{"wal.bytes_per_op", "B/op", float64(b.walBytes-a.walBytes) / ops},
		{"wal.records_per_commit", "count", ratio(ctr("wal.appends"), fsyncs)},

		{"ftcorba.deliver_us_p50", "us", us(&m.deliver, 0.5)},
		{"ftcorba.deliver_us_p99", "us", us(&m.deliver, 0.99)},
		{"ftcorba.deliveries_per_op", "count/op", float64(b.delivers-a.delivers) / ops},
		{"ftcorba.servant_us_p50", "us", us(&m.servant, 0.5)},

		{"gateway.path_self_ms_p50", "ms", float64(percentile(l.pathSelf, 0.5)) / 1e6},
		{"gateway.call_retries", "count", ctr("gateway.call_retries")},
		{"gateway.shed", "count", ctr("gateway.shed")},

		{"runtime.do_wait_us_p50", "us", us(&m.doWait, 0.5)},
		{"runtime.do_wait_us_p99", "us", us(&m.doWait, 0.99)},
		{"runtime.rx_overflow_drops", "count", ctr("runtime.rx_overflow_drops")},
		{"runtime.tx_overflow_drops", "count", ctr("runtime.tx_overflow_drops")},
		{"runtime.rx_batch_avg", "count", ratio(ctr("runtime.rx_batched_msgs"), ctr("runtime.rx_batches"))},
		{"runtime.tx_batch_avg", "count", ratio(ctr("runtime.tx_batched_msgs"), ctr("runtime.tx_batches"))},
		{"runtime.ingest_pauses", "count", ctr("runtime.ingest_pauses")},

		{"transport.tx_syscalls_per_op", "count/op", ctr("transport.tx_syscalls") / ops},
		{"transport.rx_syscalls_per_op", "count/op", ctr("transport.rx_syscalls") / ops},
		{"transport.tx_bytes_per_op", "B/op", float64(b.txBytes-a.txBytes) / ops},
		{"transport.send_us_p50", "us", us(&m.send, 0.5)},
		{"transport.recv_handler_us_p50", "us", us(&m.recvHandler, 0.5)},
		{"transport.mmsg_downgrades", "count", float64(b.ctr["transport.mmsg_downgrades"])},

		{"core.multicast_us_p50", "us", us(&m.multicast, 0.5)},
		{"core.msgs_sent_per_op", "count/op", sent / ops},
		{"core.heartbeats_per_op", "count/op", cs(func(s core.Stats) uint64 { return s.HeartbeatsSent }) / ops},
		{"core.packets_in_per_op", "count/op", cs(func(s core.Stats) uint64 { return s.PacketsIn }) / ops},
		{"core.packed_frac", "frac", ratio(cs(func(s core.Stats) uint64 { return s.PackedMsgs }), sent)},
		{"romp.pending_p50", "count", m.rompPending.quantile(0.5)},
		{"romp.max_pending", "count", float64(b.core.ROMP.MaxPending)},

		{"rmp.nacks_per_kop", "count/kop", 1000 * cs(func(s core.Stats) uint64 { return s.RMP.NacksSent }) / ops},
		{"rmp.retrans_per_kop", "count/kop", 1000 * cs(func(s core.Stats) uint64 { return s.RMP.Retransmissions }) / ops},
		{"rmp.dups_per_kop", "count/kop", 1000 * cs(func(s core.Stats) uint64 { return s.RMP.Duplicates }) / ops},
		{"rmp.out_of_order_per_kop", "count/kop", 1000 * cs(func(s core.Stats) uint64 { return s.RMP.OutOfOrder }) / ops},

		{"pgmp.suspicions", "count", cs(func(s core.Stats) uint64 { return s.PGMP.SuspectsRaised })},
		{"pgmp.convictions", "count", cs(func(s core.Stats) uint64 { return s.PGMP.Convictions })},
		{"pgmp.rounds", "count", cs(func(s core.Stats) uint64 { return s.PGMP.RoundsStarted })},
		{"pgmp.views_installed", "count", cs(func(s core.Stats) uint64 { return s.PGMP.ViewsInstalled })},
		{"core.failover_reseq_ms", "ms", ctr("core.failover_reseq_ms")},
		{"core.seq_assigned_per_op", "count/op", ctr("core.leader_seq_assigned") / ops},
		{"core.sends_refused", "count", float64(l.refused)},

		{"proc.alloc_bytes_per_op", "B/op", float64(b.alloc-a.alloc) / ops},
		{"proc.allocs_per_op", "count/op", float64(b.mallocs-a.mallocs) / ops},
		{"proc.gc_pause_p99_ms", "ms", float64(gcPauseP99(a.numGC)) / 1e6},
		{"proc.goroutines_max", "count", m.goroutines.quantile(1)},
		{"bench.gen_lag_p99_ms", "ms", lagP99},
		{"bench.trace_overhead_frac", "frac", overhead},
	}
}
