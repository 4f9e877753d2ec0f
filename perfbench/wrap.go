package main

// Outside-in instrumentation. Every timing of the traced run comes from
// wrappers around the public interfaces the program already exposes —
// transport.Transport (and BatchSender), transport.Handler, wal.FS and
// wal.File — so measuring adds calls around each layer but changes no
// path through it. The same wrappers carry the fail-stop switch the
// leader-failover workload pulls: a dead node's datagrams stop in both
// directions and its log accepts nothing more.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// epoch anchors the run clock; now is monotonic nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// meter collects the per-layer timings and counts of one run. It times
// only while on is set — during the measured phase of a traced run — so
// the untraced run pays only for the counts.
type meter struct {
	on    atomic.Bool
	spans atomic.Uint64 // timed intervals recorded, for the overhead estimate

	send, recvHandler       hist // transport
	fsync                   hist // wal
	deliver, servant        hist // ftcorba
	doWait                  hist // runtime
	multicast               hist // core
	rompPending, goroutines hist // sampled levels, not durations
	txBytes, walBytes, busy atomic.Int64
	fsyncs                  atomic.Uint64
}

// start opens a timed interval; done closes it into h.
func (m *meter) start() int64 {
	if !m.on.Load() {
		return 0
	}
	return now()
}

func (m *meter) done(h *hist, t0 int64) int64 {
	if t0 == 0 || !m.on.Load() {
		return 0
	}
	d := now() - t0
	h.add(d)
	m.spans.Add(1)
	return d
}

// meteredTransport times sends and counts their bytes. It drops every
// datagram once dead is set.
type meteredTransport struct {
	inner transport.Transport
	m     *meter
	dead  *atomic.Bool
}

// meteredBatchTransport adds SendBatch, so the runtime's send shards
// still find a transport.BatchSender (and keep using sendmmsg) exactly
// when the wrapped transport is one.
type meteredBatchTransport struct {
	*meteredTransport
	batch transport.BatchSender
}

// meterTransport wraps inner, implementing transport.BatchSender iff
// inner does.
func meterTransport(inner transport.Transport, m *meter, dead *atomic.Bool) transport.Transport {
	t := &meteredTransport{inner: inner, m: m, dead: dead}
	if b, ok := inner.(transport.BatchSender); ok {
		return &meteredBatchTransport{meteredTransport: t, batch: b}
	}
	return t
}

func (t *meteredTransport) Join(a wire.MulticastAddr) error  { return t.inner.Join(a) }
func (t *meteredTransport) Leave(a wire.MulticastAddr) error { return t.inner.Leave(a) }
func (t *meteredTransport) Close() error                     { return t.inner.Close() }

func (t *meteredTransport) Send(a wire.MulticastAddr, data []byte) error {
	if t.dead.Load() {
		return nil
	}
	t0 := t.m.start()
	err := t.inner.Send(a, data)
	t.m.done(&t.m.send, t0)
	t.m.txBytes.Add(int64(len(data)))
	return err
}

func (t *meteredBatchTransport) SendBatch(items []transport.Datagram) error {
	if t.dead.Load() {
		return nil
	}
	t0 := t.m.start()
	err := t.batch.SendBatch(items)
	t.m.done(&t.m.send, t0)
	var n int64
	for _, it := range items {
		n += int64(len(it.Data))
	}
	t.m.txBytes.Add(n)
	return err
}

// meterHandler times the receive handler the transport calls for each
// datagram, and drops datagrams once dead is set.
func meterHandler(h transport.Handler, m *meter, dead *atomic.Bool) transport.Handler {
	return func(data []byte, a wire.MulticastAddr) {
		if dead.Load() {
			return
		}
		t0 := m.start()
		h(data, a)
		m.done(&m.recvHandler, t0)
	}
}

// errCrashed is what a crashed syncFS answers to every write and sync.
var errCrashed = errors.New("perfbench: node crashed")

// syncFS wraps a wal.FS, timing each fsync and tracking, per file, how
// many bytes have been written and how many of them a completed Sync
// made durable. crash freezes the synced lengths; discardUnsynced then
// cuts every file back to them, which is what a power loss leaves.
type syncFS struct {
	inner wal.FS
	m     *meter

	mu      sync.Mutex
	files   map[string]*fileLen
	crashed bool
}

type fileLen struct{ written, synced int64 }

func newSyncFS(inner wal.FS, m *meter) *syncFS {
	return &syncFS{inner: inner, m: m, files: make(map[string]*fileLen)}
}

type syncFile struct {
	fs   *syncFS
	name string
	f    wal.File
}

func (s *syncFS) Create(name string) (wal.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, errCrashed
	}
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if _, ok := s.files[name]; !ok {
		// Bytes already present were durable before this process began.
		var size int64
		if data, err := s.inner.ReadFile(name); err == nil {
			size = int64(len(data))
		}
		s.files[name] = &fileLen{written: size, synced: size}
	}
	return &syncFile{fs: s, name: name, f: f}, nil
}

func (s *syncFS) ReadFile(name string) ([]byte, error) { return s.inner.ReadFile(name) }
func (s *syncFS) List() ([]string, error)              { return s.inner.List() }

func (s *syncFS) Truncate(name string, size int64) error {
	if err := s.inner.Truncate(name, size); err != nil {
		return err
	}
	s.mu.Lock()
	if fl, ok := s.files[name]; ok {
		fl.written, fl.synced = size, size
	}
	s.mu.Unlock()
	return nil
}

func (s *syncFS) Remove(name string) error {
	if err := s.inner.Remove(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.files, name)
	s.mu.Unlock()
	return nil
}

func (f *syncFile) Write(p []byte) (int, error) {
	s := f.fs
	s.mu.Lock()
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return 0, errCrashed
	}
	n, err := f.f.Write(p)
	s.mu.Lock()
	if fl := s.files[f.name]; fl != nil {
		fl.written += int64(n)
	}
	s.mu.Unlock()
	s.m.walBytes.Add(int64(n))
	return n, err
}

func (f *syncFile) Sync() error {
	s := f.fs
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return errCrashed
	}
	fl := s.files[f.name]
	if fl == nil {
		s.mu.Unlock()
		return f.f.Sync() // removed while open: nothing left to track
	}
	// The log never writes a file while syncing it, so every byte
	// written before the call is covered once it returns.
	target := fl.written
	s.mu.Unlock()
	t0 := now()
	err := f.f.Sync()
	d := now() - t0
	s.m.busy.Add(d)
	s.m.fsyncs.Add(1)
	if s.m.on.Load() {
		s.m.fsync.add(d)
		s.m.spans.Add(1)
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return errCrashed // completed after the crash: it never happened
	}
	if fl.synced < target {
		fl.synced = target
	}
	return nil
}

func (f *syncFile) Close() error { return f.f.Close() }

// crash fails every later write and sync and freezes the synced
// lengths.
func (s *syncFS) crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
}

// synced returns the durable length of name.
func (s *syncFS) synced(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.files[name]; ok {
		return fl.synced
	}
	return 0
}

// discardUnsynced truncates every tracked file to its synced length.
func (s *syncFS) discardUnsynced() error {
	s.mu.Lock()
	cut := make(map[string]int64, len(s.files))
	for name, fl := range s.files {
		if fl.written > fl.synced {
			cut[name] = fl.synced
		}
	}
	s.mu.Unlock()
	for name, size := range cut {
		if err := s.inner.Truncate(name, size); err != nil {
			return err
		}
		s.mu.Lock()
		s.files[name].written = size
		s.mu.Unlock()
	}
	return nil
}
