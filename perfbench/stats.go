package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// hist is a fixed-size log-bucket histogram of non-negative int64
// samples (nanoseconds or counts). Adds are lock-free from any
// goroutine, memory is bounded however long a run is, and quantiles
// are accurate to the bucket width (2%).
type hist struct {
	b [histBuckets]atomic.Uint64
	n atomic.Uint64
}

const (
	histGrowth  = 1.02
	histBuckets = 1400 // 1.02^1400 > 1e12: covers 1 ns to over 15 minutes
)

var logGrowth = math.Log(histGrowth)

func histBucket(v int64) int {
	if v < 1 {
		return 0
	}
	i := int(math.Log(float64(v))/logGrowth) + 1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

func (h *hist) add(v int64) {
	h.b[histBucket(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile (0 <= q <= 1) as the geometric middle
// of the bucket holding it, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return math.Pow(histGrowth, float64(i)-0.5)
		}
	}
	return math.Pow(histGrowth, float64(histBuckets)-0.5)
}

// percentile returns the nearest-rank q-quantile of samples, sorting
// them in place. Empty input yields 0.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank]
}

// median returns the median of xs (the mean of the middle pair for an
// even count), without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval of the traced run. Spans caused by the
// same client call share key.
type span struct {
	key        uint64
	start, end int64 // nanoseconds on the run clock
}

// coveredNs returns how much of [start, end) the union of spans covers.
func coveredNs(start, end int64, spans []span) int64 {
	iv := make([]span, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			iv = append(iv, span{start: a, end: b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var total, curA, curB int64
	open := false
	for _, s := range iv {
		if open && s.start <= curB {
			if s.end > curB {
				curB = s.end
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = s.start, s.end, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// sample is one operation's latency, stamped with the run-clock time
// that places it in a window (when it completed, or when it was due).
type sample struct{ at, lat int64 }

// mark is a window boundary: the run clock and the process's CPU time.
type mark struct {
	at  int64
	cpu time.Duration
}

// marker records a mark now and one every w after until stop, which
// returns them: with a last one at the stop if the window it closes is
// at least half of w long.
func marker(w time.Duration) (stop func() []mark) {
	marks := []mark{{now(), cpuTime()}}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(w)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				marks = append(marks, mark{now(), cpuTime()})
			}
		}
	}()
	return func() []mark {
		close(quit)
		<-done
		if t := now(); t-marks[len(marks)-1].at >= int64(w/2) {
			marks = append(marks, mark{t, cpuTime()})
		}
		return marks
	}
}

// windows holds per-window figures of measured phases. A host whose
// stalls come and go moves a few windows, not the run, so each
// reported figure is the mean of the middle half of the windows' values
// (midMean): steadier than one figure over the whole phase, and it
// moves smoothly instead of flipping between two modes.
type windows struct{ p50, p99, rate, cpuPerOp []float64 }

// add sorts samples into the windows between consecutive marks by their
// at; perOp is how many samples one operation contributes. A window
// without samples adds only its rate (0).
func (w *windows) add(samples []sample, marks []mark, perOp int) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	i := 0
	for k := 0; k+1 < len(marks); k++ {
		from, to := marks[k], marks[k+1]
		for i < len(samples) && samples[i].at < from.at {
			i++
		}
		var lat []int64
		for ; i < len(samples) && samples[i].at < to.at; i++ {
			lat = append(lat, samples[i].lat)
		}
		ops := float64(len(lat)) / float64(perOp)
		w.rate = append(w.rate, ops/(float64(to.at-from.at)/1e9))
		if len(lat) == 0 {
			continue
		}
		w.p50 = append(w.p50, float64(percentile(lat, 0.5)))
		w.p99 = append(w.p99, float64(percentile(lat, 0.99)))
		w.cpuPerOp = append(w.cpuPerOp, float64(to.cpu-from.cpu)/1e3/ops)
	}
}

// log prints every window's figures to standard error, for a reader
// checking what the run's figures summarise.
func (w *windows) log(name string) {
	var b strings.Builder
	for i := range w.p50 {
		fmt.Fprintf(&b, " %.2f/%.2f", w.p50[i]/1e6, w.p99[i]/1e6)
	}
	fmt.Fprintf(os.Stderr, "%s windows (p50/p99 ms):%s\n", name, b.String())
	b.Reset()
	for i := range w.rate {
		fmt.Fprintf(&b, " %.0f", w.rate[i])
	}
	fmt.Fprintf(os.Stderr, "%s windows (ops/s):%s\n", name, b.String())
	b.Reset()
	for i := range w.cpuPerOp {
		fmt.Fprintf(&b, " %.1f", w.cpuPerOp[i])
	}
	fmt.Fprintf(os.Stderr, "%s windows (cpu us/op):%s\n", name, b.String())
}

// midMean returns the mean of the middle half of xs (the interquartile
// mean), or 0 for none, without modifying xs.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}
