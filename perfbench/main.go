// Command perfbench is the repository benchmark: three workloads over
// real UDP loopback with every write-ahead log at fsync=always and no
// injected network delay, so latency is CPU and fsync time only.
//
//	iiop-durable     closed loop: IIOP clients call a 3-replica durable
//	                 object group through the gateway (leader order)
//	mcast-open       open loop: 64 B multicasts to 3 durable replicas
//	                 (Lamport order, every datapath stage on) at a nominal
//	                 rate, then up a rate ladder to the latency SLO's knee
//	leader-failover  open loop through a leader fail-stop (leader order)
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mcast-open --seed 1 --seconds 40 --trace 0
//
// The first line of standard output describes the host; the last is one
// JSON object: whether every correctness check passed, the operations
// attempted and failed (failed/attempted is the failed fraction), and
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) of a separate, traced run. A failed check also makes the
// exit code 1.
//
// Every workload reports every end-to-end metric. iiop-durable and
// leader-failover measure several fresh bring-ups per run, each for an
// equal share of the time. Figures taken "by window" are the mean of
// the middle half of per-window figures (iiop: three windows of
// completion time per cycle, after its warm-up; open loops: 0.5 s
// windows of due time), so a stall of the host moves a few windows, not
// the run. Where a workload has no
// second rate or no fault, a metric keeps its meaning as follows:
//
//	latency_p50_ms    by window (mcast: the nominal phase; failover: at
//	                  the survivors)
//	latency_p99_ms    iiop, mcast: by window (mcast: the nominal phase);
//	                  failover: the whole run's p99, outage included
//	throughput_ops_s  operations completed per second (iiop: by window)
//	capacity_msg_s    mcast: the knee; otherwise the completed rate,
//	                  scaled down by p99/SLO if the SLO was missed
//	                  (failover: once recovered)
//	outage_ms         failover: kill to the first delivery, at every
//	                  survivor, of a message due after it; otherwise the
//	                  bootstrap: group created to first operation executed
//	                  everywhere, median over the run's bring-ups
//	cpu_us_per_op     process CPU per operation, by window (mcast: the
//	                  nominal phase; failover: per message the survivors
//	                  delivered)
//	max_rss_mb        peak resident memory (mcast: by the nominal phase's end)
//	setup_s           bring-up until the first operation is served, median
//	                  over the run's bring-ups
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	e2e, layer        []metric
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

var workloads = map[string]func(config) (*outcome, error){
	"iiop-durable":    runIIOP,
	"mcast-open":      runMcast,
	"leader-failover": runFailover,
}

func main() {
	workload := flag.String("workload", "", "workload to run: iiop-durable, mcast-open or leader-failover")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Float64("seconds", 20, "how long the measured phase runs")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	workdir := flag.String("workdir", ".bench_build/perfbench-work", "directory under which a run keeps its write-ahead logs until it ends")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload iiop-durable|mcast-open|leader-failover, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println("host", hostFingerprint())
	o, err := run(config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: dir})
	// The logs are removed only now, and the removal is committed before
	// the process exits, so that freeing their blocks loads the disk
	// neither during this run's measurements nor during the next run's.
	_ = os.RemoveAll(dir) // a leftover directory costs only disk space
	syscall.Sync()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	metrics := o.e2e
	if *traceFlag == 1 {
		metrics = o.layer
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			o.problems = append(o.problems, fmt.Sprintf("metric %s is not a number", m.name))
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	correct := len(o.problems) == 0 && o.failed == 0
	fmt.Println(resultLine(correct, o.attempted, o.failed, metrics))
	if !correct {
		os.Exit(1)
	}
}

// resultLine renders the result object with the metrics in their
// declared order.
func resultLine(correct bool, attempted, failed int64, metrics []metric) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, attempted, failed)
	for i, m := range metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, formatValue(v), unit)
	}
	b.WriteString("}}")
	return b.String()
}

// formatValue prints v with every digit it has.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fp, _ := json.Marshal(map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"kernel":     strings.TrimSpace(string(kernel)),
		"cpu":        cpu,
		"go":         goruntime.Version(),
		"os_arch":    goruntime.GOOS + "/" + goruntime.GOARCH,
	})
	return string(fp)
}

// Service-level objective of the open-loop workloads: a rate meets it
// when its p99 latency, timed from each message's due time, stays at or
// below sloP99 with every message delivered everywhere and no queue
// overflow.
const sloP99 = 50 * time.Millisecond

// plainBringUps is how many extra bring-ups, timed for setup_s and the
// bootstrap outage and then closed, precede each measured cycle and
// follow the last. One bring-up takes milliseconds and alone swings by
// half, and the ones close together in time swing together, so a run
// spreads many of them over its length and reports their medians.
const plainBringUps = 3

// bringUps collects the set-up and bootstrap times of a run's bring-ups.
type bringUps struct{ setup, boot []float64 }

func (b *bringUps) note(setup, boot time.Duration) {
	b.setup = append(b.setup, setup.Seconds())
	b.boot = append(b.boot, float64(boot)/1e6)
}

// setupS is the median set-up time in seconds; bootMs the median
// bootstrap time in milliseconds.
func (b *bringUps) setupS() float64 { return median(b.setup) }
func (b *bringUps) bootMs() float64 { return median(b.boot) }

// endToEnd lists the end-to-end metrics in their declared order.
func endToEnd(p50, p99, throughput, capacity, outage, cpuPerOp, rssMB, setup float64) []metric {
	return []metric{
		{"latency_p50_ms", "ms", p50},
		{"latency_p99_ms", "ms", p99},
		{"throughput_ops_s", "1/s", throughput},
		{"capacity_msg_s", "1/s", capacity},
		{"outage_ms", "ms", outage},
		{"cpu_us_per_op", "us", cpuPerOp},
		{"max_rss_mb", "MB", rssMB},
		{"setup_s", "s", setup},
	}
}
