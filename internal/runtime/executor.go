package runtime

import (
	"sync"
	"sync/atomic"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/trace"
	"ftmp/internal/wal"
)

// executor is the one path application upcalls (deliveries, view
// changes, fault reports) take, in exactly the order the core emitted
// them. Before a callback observes an event, the WAL records it implies
// are committed (wal.SyncBatch): write-ahead, so a crash never loses an
// event the application has seen, under the log's fsync policy.
//
// With depth == 0 the executor is inline: each upcall commits and runs
// on the caller's stack — the event loop — so callbacks stay
// loop-affine. Inline dispatch is re-entrant: a callback that calls back
// into the node can emit nested upcalls, which commit and run on the
// spot, exactly as if the core had called the application directly.
//
// With depth > 0 the loop only enqueues; one executor goroutine
// dequeues in chunks, group-commits each chunk's records with a single
// fsync and then invokes the callbacks. That queue is unbounded on
// purpose: an enqueue that blocked the loop could deadlock with an
// application callback that calls Runner.Do. Backpressure is instead a
// soft watermark (backlogged): when the backlog reaches depth, the loop
// pauses draining the receive ring — ingestion stalls, the loop itself
// stays live for ticks, retransmissions and operations.
type executor struct {
	cb    core.Callbacks // application-facing callbacks only
	sb    *wal.SyncBatch // nil when not durable
	onErr func(error)
	chunk int // max upcalls (and WAL records) per group commit
	depth int // backlog watermark that pauses ingestion; 0: inline

	mu     sync.Mutex
	cond   *sync.Cond
	q      []upcall
	closed bool
	qlen   atomic.Int64
	done   chan struct{}
}

type upKind uint8

const (
	upDeliver upKind = iota
	upView
	upFault
	upBarrier
)

type upcall struct {
	kind upKind
	d    core.Delivery
	v    core.ViewChange
	// fault report
	group     ids.GroupID
	convicted ids.Membership
	// barrier: sync the WAL, then run fn (if any) with exclusive WAL
	// access (compaction) and answer on the buffered (cap 1) channel
	barrier chan error
	fn      func() error
}

func newExecutor(cb core.Callbacks, w *wal.Log, chunk, depth int, onErr func(error)) *executor {
	e := &executor{
		cb:    cb,
		onErr: onErr,
		chunk: chunk,
		depth: depth,
	}
	if w != nil {
		e.sb = wal.NewSyncBatch(w)
	}
	if depth > 0 {
		e.cond = sync.NewCond(&e.mu)
		e.done = make(chan struct{})
		go e.run()
	}
	return e
}

// enqueue hands one upcall to the executor. Never blocks on the
// application except inline, where it is the application call. After
// close (only the Runner closes, after the loop has stopped) a barrier
// is answered on the caller and anything else is dropped — by then the
// queue has fully drained, so nothing is lost.
func (e *executor) enqueue(u upcall) {
	if e.depth == 0 {
		us := [1]upcall{u}
		var recs [2]wal.Record
		e.commit(us[:], recs[:0])
		e.dispatch(&us[0])
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		if u.barrier != nil {
			<-e.done // the drain owns the WAL until it finishes
			e.dispatch(&u)
		}
		return
	}
	e.q = append(e.q, u)
	e.qlen.Add(1)
	e.cond.Signal()
	e.mu.Unlock()
}

// backlogged reports whether the loop should pause ingestion.
func (e *executor) backlogged() bool {
	return e.depth > 0 && int(e.qlen.Load()) >= e.depth
}

// syncNow forces everything committed so far to stable storage.
func (e *executor) syncNow() error {
	if e.sb == nil {
		return nil
	}
	return e.sb.Sync()
}

func (e *executor) run() {
	defer close(e.done)
	var chunk []upcall
	var recs []wal.Record
	for {
		e.mu.Lock()
		for len(e.q) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.q) == 0 {
			e.mu.Unlock()
			// Closed and drained: leave nothing volatile behind.
			e.report(e.syncNow())
			return
		}
		n := len(e.q)
		if n > e.chunk {
			n = e.chunk
		}
		chunk = append(chunk[:0], e.q[:n]...)
		if n == len(e.q) {
			e.q = e.q[:0]
		} else {
			rest := copy(e.q, e.q[n:])
			for i := rest; i < len(e.q); i++ {
				e.q[i] = upcall{}
			}
			e.q = e.q[:rest]
		}
		e.qlen.Add(-int64(n))
		e.mu.Unlock()

		recs = e.commit(chunk, recs[:0])
		for i := range chunk {
			e.dispatch(&chunk[i])
			chunk[i] = upcall{}
		}
	}
}

// commit makes every WAL record that us implies durable in one group
// commit, using recs as scratch (returned for reuse).
func (e *executor) commit(us []upcall, recs []wal.Record) []wal.Record {
	if e.sb == nil {
		return recs
	}
	for i := range us {
		u := &us[i]
		switch u.kind {
		case upDeliver:
			if u.d.OrderSeq > 0 {
				recs = append(recs, seqRecord(u.d))
			}
			recs = append(recs, deliverRecord(u.d))
		case upView:
			if rec, ok := viewRecord(u.v); ok {
				recs = append(recs, rec)
			}
		}
	}
	if len(recs) > 0 {
		// Report loudly, still deliver: availability is not sacrificed
		// to a full disk.
		e.report(e.sb.Commit(recs...))
	}
	return recs
}

// dispatch runs one committed upcall.
func (e *executor) dispatch(u *upcall) {
	switch u.kind {
	case upDeliver:
		trace.Inc("runtime.exec_deliveries")
		if e.cb.Deliver != nil {
			e.cb.Deliver(u.d)
		}
	case upView:
		if e.cb.ViewChange != nil {
			e.cb.ViewChange(u.v)
		}
	case upFault:
		if e.cb.FaultReport != nil {
			e.cb.FaultReport(u.group, u.convicted)
		}
	case upBarrier:
		// Drain pending group commits first: fn (WAL compaction) needs
		// the log quiescent and every prior record durable.
		err := e.syncNow()
		if err == nil && u.fn != nil {
			err = u.fn()
		}
		u.barrier <- err
	}
}

func (e *executor) report(err error) {
	if err != nil && e.onErr != nil {
		e.onErr(err)
	}
}

// close drains everything already enqueued, then syncs the WAL so
// nothing volatile is left behind. Called once the loop has stopped.
func (e *executor) close() {
	if e.depth == 0 {
		e.report(e.syncNow())
		return
	}
	e.mu.Lock()
	e.closed = true
	e.cond.Signal()
	e.mu.Unlock()
	<-e.done
}

// deliverRecord maps an ordered delivery to its WAL record.
func deliverRecord(d core.Delivery) wal.Record {
	return wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		Conn:    d.Conn,
		ReqNum:  d.RequestNum,
		Request: true,
		TS:      d.TS,
		Payload: d.Payload,
	}}
}

// seqRecord maps a leader-mode delivery's ordering assignment to its
// WAL record, committed in the same group commit as (and ahead of) the
// delivery's RecOp so the sequence prefix is never behind the op log.
func seqRecord(d core.Delivery) wal.Record {
	return wal.Record{Type: wal.RecSeq, Seq: &wal.SeqRecord{
		Group:  d.Group,
		Epoch:  d.OrderEpoch,
		Seq:    d.OrderSeq,
		Source: d.Source,
		SrcSeq: d.SourceSeq,
	}}
}

// viewRecord maps an installed view to its WAL record. ViewWedge
// records the wedge point (nothing was installed); ViewHeal is a
// teardown notice that must not clear the wedge marker, so it logs
// nothing; everything else is a new epoch.
func viewRecord(v core.ViewChange) (wal.Record, bool) {
	switch v.Reason {
	case core.ViewWedge:
		return wal.Record{Type: wal.RecWedge, Wedge: &wal.WedgeRecord{
			Group:   v.Group,
			Epoch:   v.Epoch,
			ViewTS:  v.ViewTS,
			Members: v.Members.Clone(),
		}}, true
	case core.ViewHeal:
		return wal.Record{}, false
	default:
		return wal.Record{Type: wal.RecEpoch, Epoch: &wal.EpochRecord{
			Group:   v.Group,
			ViewTS:  v.ViewTS,
			Members: v.Members.Clone(),
		}}, true
	}
}
