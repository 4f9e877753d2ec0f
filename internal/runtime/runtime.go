// Package runtime drives an FTMP node over a real network in real time.
// The node itself is a single-threaded state machine (package core) and
// stays that way; the Runner serializes everything onto one event-loop
// goroutine: received datagrams, timer ticks, and application
// operations submitted through Do.
//
// There is one datapath. Readers hand datagrams to a receive ring; the
// loop feeds them to the core in arrival order; the core's upcalls go
// through the ordered delivery executor, which commits their
// write-ahead log (WAL) records before the application observes them:
//
//	readers ──▶ rxRing ──▶ [decode workers] ─┐
//	                                         ▼ (in arrival order)
//	                      event loop: core.HandlePacket/HandleBatch / Tick / Do
//	                           │                      │
//	                 Transmit  ▼                      ▼  Deliver/ViewChange/FaultReport
//	             [sharded send queues]      ordered delivery executor
//	                           │                      │ (WAL commit, then app)
//	                           ▼                      ▼
//	                       transport              application
//
// By default every stage runs on the loop goroutine, so application
// callbacks see the same single-threaded world the simulator provides —
// which the CORBA infrastructure (package ftcorba) requires. Options
// independently move the bracketed stages and the executor off the
// loop: RecvWorkers decodes in parallel (the ring resequences, so the
// core still sees arrival order), DeliveryDepth runs upcalls on their
// own goroutine with WAL group commit, SendShards moves socket writes
// off the loop. Durability (Options.WAL) works the same in every mode.
package runtime

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// batchMax caps the datagrams the loop ingests per receive-ring
// wakeup, so ticks and operations interleave with a long burst.
const batchMax = 256

// Runner hosts one FTMP node on a transport.
type Runner struct {
	Node *core.Node

	tr       transport.Transport
	ring     *rxRing
	workers  int
	workStop chan struct{}
	workWG   sync.WaitGroup
	batch    []core.Incoming // decoded-batch scratch (workers only)
	paused   bool            // loop-only: ingestion paused by executor backlog

	exec *executor
	snd  *sender

	ops      chan func(now int64)
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	tick     time.Duration
	start    time.Time

	dropWarn warnLimiter
}

// Options configures a Runner. The zero value runs every stage on the
// event loop; each pipeline stage is enabled independently.
type Options struct {
	// Tick is the timer cadence (default 1ms).
	Tick time.Duration
	// QueueDepth bounds the receive ring (rounded up to a power of two;
	// default 4096). Overflow drops datagrams, which the protocol
	// treats as network loss; drops are counted in the
	// runtime.rx_overflow_drops trace counter.
	QueueDepth int

	// RecvWorkers > 0 enables the parallel receive stage: that many
	// decode workers pre-parse datagrams off the loop and the loop
	// ingests them in arrival-order batches via core.HandleBatch. With
	// none the loop decodes each datagram itself (core.HandlePacket).
	RecvWorkers int

	// DeliveryDepth > 0 moves the ordered delivery executor off the
	// loop: Deliver/ViewChange/FaultReport upcalls run on a dedicated
	// goroutine in emission order, and when the executor's backlog
	// reaches DeliveryDepth the loop pauses receive-ring ingestion (the
	// loop itself stays live) until the application catches up.
	// Application callbacks then run OFF the loop goroutine; they may
	// still call Runner.Do. With 0 upcalls run inline on the loop.
	DeliveryDepth int
	// WAL, when set, is owned by the executor: the records each upcall
	// implies are committed before its callback runs. Off the loop, all
	// records of one executor chunk become durable in a single fsync
	// (wal.SyncBatch). The log must not be used directly except inside
	// WALExec.
	WAL *wal.Log
	// WALBatch caps upcalls per group commit (default 64).
	WALBatch int
	// OnWALError hears WAL failures (may be nil); the event still
	// reaches the application.
	OnWALError func(error)

	// SendShards > 0 enables the async send stage: transmissions are
	// hashed by destination onto that many bounded FIFO queues, each
	// drained by its own goroutine. Full-queue overflow drops the packet
	// (counted in runtime.tx_overflow_drops).
	SendShards int
	// SendDepth bounds each send shard's queue (default 1024).
	SendDepth int

	// SendBatch > 1 (with SendShards > 0, on a transport implementing
	// transport.BatchSender) lets each send shard coalesce its queued
	// backlog — up to this many frames — into one SendBatch call per
	// wakeup, which the batched transports turn into sendmmsg(2)
	// vectors. 0 or 1 keeps one transport Send per frame. Purely a
	// syscall amortization: per-destination FIFO and every protocol
	// effect are unchanged.
	SendBatch int
}

// New creates a runner. The caller supplies the node configuration and
// callbacks; the runner overrides the transport-facing callbacks
// (Transmit, Subscribe, Unsubscribe) to use mkTransport's transport and
// routes the application-facing ones (Deliver, ViewChange, FaultReport)
// through the delivery executor — on the loop, or with
// DeliveryDepth > 0 on the executor goroutine. mkTransport receives the
// handler the transport must invoke.
func New(cfg core.Config, cb core.Callbacks, mkTransport func(transport.Handler) (transport.Transport, error), opt Options) (*Runner, error) {
	if opt.Tick == 0 {
		opt.Tick = time.Millisecond
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 4096
	}
	if opt.WALBatch == 0 {
		opt.WALBatch = 64
	}
	if opt.SendDepth == 0 {
		opt.SendDepth = 1024
	}
	r := &Runner{
		ring:     newRxRing(opt.QueueDepth, opt.RecvWorkers > 0),
		workers:  opt.RecvWorkers,
		workStop: make(chan struct{}),
		ops:      make(chan func(now int64), 256),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		tick:     opt.Tick,
		start:    time.Now(),
	}
	if r.workers > 0 {
		r.batch = make([]core.Incoming, 0, batchMax)
	}

	tr, err := mkTransport(func(data []byte, addr wire.MulticastAddr) {
		if !r.ring.offer(data, addr) {
			r.noteRxDrop()
		}
	})
	if err != nil {
		return nil, err
	}
	r.tr = tr

	if opt.SendShards > 0 {
		r.snd = newSender(tr, opt.SendShards, opt.SendDepth, opt.SendBatch)
		cb.Transmit = r.snd.send
	} else {
		cb.Transmit = func(addr wire.MulticastAddr, data []byte) {
			// Best-effort: transmission errors look like loss to the peer
			// and are repaired by the protocol.
			_ = tr.Send(addr, data)
		}
	}
	cb.Subscribe = func(addr wire.MulticastAddr) { _ = tr.Join(addr) }
	cb.Unsubscribe = func(addr wire.MulticastAddr) { _ = tr.Leave(addr) }

	app := core.Callbacks{
		Deliver:     cb.Deliver,
		ViewChange:  cb.ViewChange,
		FaultReport: cb.FaultReport,
	}
	r.exec = newExecutor(app, opt.WAL, opt.WALBatch, opt.DeliveryDepth, opt.OnWALError)
	cb.Deliver = func(d core.Delivery) {
		r.exec.enqueue(upcall{kind: upDeliver, d: d})
	}
	cb.ViewChange = func(v core.ViewChange) {
		r.exec.enqueue(upcall{kind: upView, v: v})
	}
	cb.FaultReport = func(g ids.GroupID, convicted ids.Membership) {
		r.exec.enqueue(upcall{kind: upFault, group: g, convicted: convicted})
	}

	r.Node = core.NewNode(cfg, cb)
	for i := 0; i < r.workers; i++ {
		r.workWG.Add(1)
		go r.decodeWorker()
	}
	go r.loop()
	return r, nil
}

// noteRxDrop counts a receive overflow and warns, rate-limited, so a
// persistently overrun replica is visible in logs without flooding them.
func (r *Runner) noteRxDrop() {
	trace.Inc("runtime.rx_overflow_drops")
	if r.dropWarn.allow(time.Now().UnixNano(), int64(time.Second)) {
		fmt.Fprintf(os.Stderr,
			"ftmp/runtime: receive queue overflow, dropping datagrams (%d so far)\n",
			trace.Counter("runtime.rx_overflow_drops"))
	}
}

// decodeWorker pre-parses datagrams off the loop with its own decoder.
func (r *Runner) decodeWorker() {
	defer r.workWG.Done()
	var dec wire.Decoder
	for r.ring.decodeOne(&dec, r.workStop) {
	}
}

// now returns monotonic nanoseconds since the runner started.
func (r *Runner) now() int64 { return int64(time.Since(r.start)) }

// Now returns the runner's monotonic clock. Callbacks may use it to
// timestamp follow-up operations.
func (r *Runner) Now() int64 { return r.now() }

func (r *Runner) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.ring.notify:
			r.drainRing()
		case op := <-r.ops:
			op(r.now())
		case <-ticker.C:
			// The tick also resumes ingestion after a backpressure
			// pause (the ring's wakeup may have been consumed while
			// paused), at worst one tick late.
			r.drainRing()
			r.Node.Tick(r.now())
		}
	}
}

// drainRing feeds up to batchMax ready datagrams from the receive ring
// into the core, unless the delivery executor is backlogged — then
// ingestion pauses (the ring and, transitively, the kernel socket
// buffer absorb the burst) while ticks and operations stay live.
func (r *Runner) drainRing() {
	if r.exec.backlogged() {
		if !r.paused {
			r.paused = true
			trace.Inc("runtime.ingest_pauses")
		}
		return
	}
	r.paused = false
	if r.workers == 0 {
		for i := 0; i < batchMax; i++ {
			data, addr, ok := r.ring.next()
			if !ok {
				break
			}
			r.Node.HandlePacket(data, addr, r.now())
		}
	} else {
		batch, errs := r.ring.drain(batchMax, r.batch[:0])
		if errs > 0 {
			r.Node.NoteDecodeErrors(errs)
		}
		if len(batch) > 0 {
			r.Node.HandleBatch(batch, r.now())
			trace.Inc("runtime.rx_batches")
			trace.Count("runtime.rx_batched_msgs", uint64(len(batch)))
		}
		r.batch = batch[:0]
	}
	if r.ring.hasReady() {
		// Hit the batch cap with more already ready: re-arm.
		r.ring.wake()
	}
}

// Do runs fn on the loop goroutine with the current time and waits for
// it to finish. All Node method calls must go through Do.
func (r *Runner) Do(fn func(node *core.Node, now int64)) {
	ack := make(chan struct{})
	select {
	case r.ops <- func(now int64) {
		fn(r.Node, now)
		close(ack)
	}:
	case <-r.stop:
		return
	}
	select {
	case <-ack:
	case <-r.done:
	}
}

// WALSync is the durability barrier: it blocks until every upcall the
// core emitted before it has run and the WAL (if any) is forced to
// stable storage, whatever the log's fsync policy.
func (r *Runner) WALSync() error { return r.WALExec(nil) }

// WALExec runs fn (if non-nil) on the goroutine that owns the WAL —
// the executor goroutine, or the event loop with an inline executor —
// after every upcall emitted before it has committed and the log is
// synced: the hook for WAL compaction, which needs exclusive, quiescent
// log access. Must not be called from an application callback (it
// would deadlock waiting on its own queue).
func (r *Runner) WALExec(fn func() error) error {
	ch := make(chan error, 1)
	u := upcall{kind: upBarrier, fn: fn, barrier: ch}
	ran := false
	r.Do(func(*core.Node, int64) {
		ran = true
		r.exec.enqueue(u)
	})
	if !ran {
		// Stopped, so a Close is under way: once it has drained the
		// executor the log is quiescent and the barrier runs here.
		r.Close()
		r.exec.enqueue(u)
	}
	return <-ch
}

// Close stops the pipeline in dependency order: the loop first (no new
// sends or upcalls), then the send shards flush while the transport is
// still up, then the transport (stops the readers), the decode workers,
// and finally the executor drains every remaining upcall — including
// the final WAL group commit and sync.
func (r *Runner) Close() {
	r.stopOnce.Do(func() {
		close(r.stop)
		<-r.done
		if r.snd != nil {
			r.snd.close()
		}
		_ = r.tr.Close()
		close(r.workStop)
		r.workWG.Wait()
		r.exec.close()
	})
}

// warnLimiter allows one event per interval, concurrency-safe.
type warnLimiter struct {
	last atomic.Int64
}

func (w *warnLimiter) allow(now, interval int64) bool {
	l := w.last.Load()
	if l != 0 && now-l < interval {
		return false
	}
	return w.last.CompareAndSwap(l, now)
}
