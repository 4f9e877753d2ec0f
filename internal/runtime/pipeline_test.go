package runtime_test

// Tests for the pipelined runner: parallel receive/decode, async
// ordered delivery, sharded sends and executor-owned WAL group commit.
// Everything here runs over real UDP sockets on loopback and is meant
// to be raced (go test -race).

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// pnode is one pipelined processor plus its recorded upcalls.
type pnode struct {
	p     ids.ProcessorID
	r     *runtime.Runner
	mu    sync.Mutex
	got   []string
	views []core.ViewChange
	hook  func(n *pnode, d core.Delivery) // optional, runs on the executor
}

func (n *pnode) delivered() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.got...)
}

func (n *pnode) viewsSeen() []core.ViewChange {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]core.ViewChange(nil), n.views...)
}

// newPipeNodes starts n pipelined processors in a full UDP mesh (self
// included) and creates the group on each. opts is cloned per node; a
// non-nil wlog is attached to node 1 only.
func newPipeNodes(t *testing.T, n int, opts runtime.Options, wlog *wal.Log) []*pnode {
	t.Helper()
	nodes := make([]*pnode, n)
	meshes := make([]*transport.UDPMesh, n)
	var members ids.Membership
	for i := 1; i <= n; i++ {
		members = members.Add(ids.ProcessorID(i))
	}
	for i := 0; i < n; i++ {
		p := ids.ProcessorID(i + 1)
		node := &pnode{p: p}
		cfg := core.DefaultConfig(p)
		cfg.PGMP.SuspectTimeout = 2_000_000_000 // CI scheduler jitter headroom
		cb := core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {}, // installed by the runner
			Deliver: func(d core.Delivery) {
				node.mu.Lock()
				node.got = append(node.got, string(d.Payload))
				node.mu.Unlock()
				if node.hook != nil {
					node.hook(node, d)
				}
			},
			ViewChange: func(v core.ViewChange) {
				node.mu.Lock()
				node.views = append(node.views, v)
				node.mu.Unlock()
			},
		}
		o := opts
		if i == 0 {
			o.WAL = wlog
		}
		var mesh *transport.UDPMesh
		r, err := runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
			m, err := transport.NewUDPMesh("127.0.0.1:0", h)
			mesh = m
			return m, err
		}, o)
		if err != nil {
			t.Fatalf("runner %d: %v", i+1, err)
		}
		node.r = r
		nodes[i] = node
		meshes[i] = mesh
		t.Cleanup(r.Close)
	}
	for _, m := range meshes {
		for _, peer := range meshes {
			if err := m.AddPeer(peer.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, node := range nodes {
		node.r.Do(func(nd *core.Node, now int64) {
			nd.CreateGroup(now, grp, members)
		})
	}
	return nodes
}

// pipeOpts is the full pipeline: parallel decode, async delivery,
// sharded sends.
func pipeOpts() runtime.Options {
	return runtime.Options{
		RecvWorkers:   4,
		DeliveryDepth: 64,
		SendShards:    2,
	}
}

// TestPipelineTotalOrder is the baseline protocol property run through
// every pipeline stage at once: concurrent senders, identical delivery
// order everywhere.
func TestPipelineTotalOrder(t *testing.T) {
	const n, each = 3, 10
	nodes := newPipeNodes(t, n, pipeOpts(), nil)
	var wg sync.WaitGroup
	for _, node := range nodes {
		node := node
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				node.r.Do(func(nd *core.Node, now int64) {
					payload := fmt.Sprintf("%v:%d", node.p, i)
					if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(payload)); err != nil {
						t.Errorf("multicast: %v", err)
					}
				})
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	total := n * each
	ok := waitFor(t, 10*time.Second, func() bool {
		for _, node := range nodes {
			if len(node.delivered()) < total {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, node := range nodes {
			t.Logf("P%d delivered %d/%d", node.p, len(node.delivered()), total)
		}
		t.Fatal("pipelined delivery incomplete")
	}
	base := nodes[0].delivered()
	for _, node := range nodes[1:] {
		got := node.delivered()
		for j := range base {
			if got[j] != base[j] {
				t.Fatalf("total order differs at %d: %q vs %q", j, got[j], base[j])
			}
		}
	}
}

// TestPipelineOrderedDeliveryInvariant pins the executor's contract: no
// upcall reordering, no duplication, per-source FIFO — while the
// application callback itself is slow and re-enters the runner through
// Do (the exact shape that would deadlock a naively bounded executor).
func TestPipelineOrderedDeliveryInvariant(t *testing.T) {
	const msgs = 150
	opts := pipeOpts()
	opts.DeliveryDepth = 8 // tiny watermark: force backpressure pauses
	nodes := newPipeNodes(t, 2, opts, nil)
	var pongs atomic.Int64
	nodes[1].hook = func(n *pnode, d core.Delivery) {
		if !strings.HasPrefix(string(d.Payload), "ping-") {
			return
		}
		time.Sleep(50 * time.Microsecond) // lag the app: backlog builds
		if pongs.Add(1)%10 == 0 {
			// Re-enter the runner from the executor goroutine.
			n.r.Do(func(nd *core.Node, now int64) {
				_ = nd.Multicast(now, grp, ids.ConnectionID{}, 0,
					[]byte("pong-"+string(d.Payload[5:])))
			})
		}
	}
	for i := 0; i < msgs; i++ {
		i := i
		nodes[0].r.Do(func(nd *core.Node, now int64) {
			if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("ping-%04d", i))); err != nil {
				t.Errorf("multicast: %v", err)
			}
		})
	}
	want := msgs + msgs/10 // pings + pongs
	ok := waitFor(t, 15*time.Second, func() bool {
		return len(nodes[0].delivered()) >= want && len(nodes[1].delivered()) >= want
	})
	if !ok {
		t.Fatalf("delivered %d and %d, want %d", len(nodes[0].delivered()), len(nodes[1].delivered()), want)
	}
	for _, node := range nodes {
		got := node.delivered()
		if len(got) != want {
			t.Fatalf("P%v delivered %d, want exactly %d (duplication?)", node.p, len(got), want)
		}
		// Per-source FIFO with no gaps and no duplicates: the ping
		// subsequence must be exactly 0..msgs-1 in order, the pong
		// subsequence exactly the multiples of 10 minus one, in order.
		var pings, pongsSeen []int
		for _, s := range got {
			seq, err := strconv.Atoi(s[5:])
			if err != nil {
				t.Fatalf("bad payload %q", s)
			}
			if strings.HasPrefix(s, "ping-") {
				pings = append(pings, seq)
			} else {
				pongsSeen = append(pongsSeen, seq)
			}
		}
		if len(pings) != msgs {
			t.Fatalf("P%v saw %d pings, want %d", node.p, len(pings), msgs)
		}
		for i, seq := range pings {
			if seq != i {
				t.Fatalf("P%v ping reordered at %d: got seq %d", node.p, i, seq)
			}
		}
		for i := 1; i < len(pongsSeen); i++ {
			if pongsSeen[i] <= pongsSeen[i-1] {
				t.Fatalf("P%v pong reordered: %v", node.p, pongsSeen)
			}
		}
	}
	// Agreement: identical order across nodes.
	a, b := nodes[0].delivered(), nodes[1].delivered()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestPipelineStressOverflowAndShutdown blasts a tiny ring through a
// lagging application — overflow drops, backpressure pauses and NACK
// repair all fire — then tears the cluster down mid-burst. The test
// passes if nothing deadlocks, panics or races, and whatever was
// delivered is identical on both nodes up to the shorter prefix.
func TestPipelineStressOverflowAndShutdown(t *testing.T) {
	opts := pipeOpts()
	opts.QueueDepth = 64
	opts.DeliveryDepth = 4
	opts.SendDepth = 16
	nodes := newPipeNodes(t, 2, opts, nil)
	nodes[1].hook = func(*pnode, core.Delivery) {
		time.Sleep(100 * time.Microsecond)
	}
	stopSend := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopSend:
					return
				default:
				}
				nodes[0].r.Do(func(nd *core.Node, now int64) {
					_ = nd.Multicast(now, grp, ids.ConnectionID{}, 0,
						[]byte(fmt.Sprintf("burst-%d-%06d", w, i)))
				})
			}
		}()
	}
	// Let the burst overrun the pipeline for a while.
	time.Sleep(300 * time.Millisecond)
	// Shutdown mid-burst, senders still running: Do must not block and
	// Close must drain cleanly.
	nodes[1].r.Close()
	nodes[0].r.Close()
	close(stopSend)
	wg.Wait()

	a, b := nodes[0].delivered(), nodes[1].delivered()
	min := len(a)
	if len(b) < min {
		min = len(b)
	}
	for i := 0; i < min; i++ {
		if a[i] != b[i] {
			t.Fatalf("delivered prefixes diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	t.Logf("burst: delivered %d/%d, rx drops %d, tx drops %d, ingest pauses %d",
		len(a), len(b),
		trace.Counter("runtime.rx_overflow_drops"),
		trace.Counter("runtime.tx_overflow_drops"),
		trace.Counter("runtime.ingest_pauses"))
}

// TestPipelineLoopDecodeBackpressure runs the loop-decoding ring (no
// workers) behind an off-loop executor whose application lags: the
// executor backlog must pause ingestion, the tiny ring must overflow,
// and NACK repair must still bring both replicas to the same complete
// history.
func TestPipelineLoopDecodeBackpressure(t *testing.T) {
	drops0 := trace.Counter("runtime.rx_overflow_drops")
	pauses0 := trace.Counter("runtime.ingest_pauses")
	nodes := newPipeNodes(t, 2, runtime.Options{QueueDepth: 8, DeliveryDepth: 2}, nil)
	nodes[1].hook = func(*pnode, core.Delivery) {
		time.Sleep(200 * time.Microsecond)
	}
	const msgs = 400
	for i := 0; i < msgs; i++ {
		payload := []byte(fmt.Sprintf("loop-%04d-%s", i, strings.Repeat("x", 200)))
		for {
			var err error
			nodes[0].r.Do(func(nd *core.Node, now int64) {
				err = nd.Multicast(now, grp, ids.ConnectionID{}, 0, payload)
			})
			if err == nil {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if !waitFor(t, 30*time.Second, func() bool {
		return len(nodes[0].delivered()) >= msgs && len(nodes[1].delivered()) >= msgs
	}) {
		t.Fatalf("delivered %d and %d of %d", len(nodes[0].delivered()), len(nodes[1].delivered()), msgs)
	}
	a, b := nodes[0].delivered(), nodes[1].delivered()
	if len(a) != msgs || len(b) != msgs {
		t.Fatalf("delivered %d and %d, want exactly %d", len(a), len(b), msgs)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %.9q vs %.9q", i, a[i], b[i])
		}
	}
	drops := trace.Counter("runtime.rx_overflow_drops") - drops0
	pauses := trace.Counter("runtime.ingest_pauses") - pauses0
	t.Logf("rx drops %d, ingest pauses %d", drops, pauses)
	if drops == 0 || pauses == 0 {
		t.Fatalf("overflow paths did not run: rx drops %d, ingest pauses %d", drops, pauses)
	}
}

// TestPipelineDurableGroupCommit runs a durable pipelined node
// (executor-owned WAL) and checks the write-ahead promise end to end:
// after WALSync and shutdown the log contains every delivery, exactly
// once, in delivery order.
func TestPipelineDurableGroupCommit(t *testing.T) {
	fs := wal.NewMemFS()
	wlog, _, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	opts := pipeOpts()
	opts.WALBatch = 8
	nodes := newPipeNodes(t, 1, opts, wlog)
	const msgs = 40
	for i := 0; i < msgs; i++ {
		i := i
		nodes[0].r.Do(func(nd *core.Node, now int64) {
			if err := nd.Multicast(now, grp, ids.ConnectionID{}, 0, []byte(fmt.Sprintf("durable-%03d", i))); err != nil {
				t.Errorf("multicast: %v", err)
			}
		})
	}
	if !waitFor(t, 10*time.Second, func() bool { return len(nodes[0].delivered()) >= msgs }) {
		t.Fatalf("delivered %d/%d", len(nodes[0].delivered()), msgs)
	}
	// The durability barrier: everything upcalled so far is on disk.
	if err := nodes[0].r.WALSync(); err != nil {
		t.Fatalf("WALSync: %v", err)
	}
	nodes[0].r.Close()
	if err := wlog.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	_, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	replay := runtime.RecoverReplay(rec.Records)
	if len(replay.Deliveries) != msgs {
		t.Fatalf("recovered %d deliveries, want %d", len(replay.Deliveries), msgs)
	}
	for i, op := range replay.Deliveries {
		want := fmt.Sprintf("durable-%03d", i)
		if string(op.Payload) != want {
			t.Fatalf("recovered delivery %d = %q, want %q (order or duplication broken)", i, op.Payload, want)
		}
	}
	if trace.Counter("wal.group_commits") == 0 {
		t.Error("no group commits recorded")
	}
}
