package harness

// The durable cluster the wall-clock experiments E14, E16 and E17 run
// on: n replicas on a real UDP loopback mesh, each with a write-ahead
// log (fsync=always, in a temporary directory) owned by its runner, all
// members of one group. Drivers multicast udpPayload-byte messages
// whose first 8 bytes carry a sequence number; sequence numbers below
// udpWarmup are a closed-loop warm-up that settles membership and warms
// the path before anything is measured.

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/trace"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

const (
	udpWarmup  = 50 // unmeasured messages to settle the group first
	udpPayload = 64 // bytes per message (seq in the first 8)
	// udpNoConvict is a suspect timeout no load-induced stall reaches.
	udpNoConvict = 5_000_000_000
)

// udpPipelined is every off-loop stage of the runtime datapath: decode
// workers, the delivery executor with WAL group commit, send shards.
var udpPipelined = runtime.Options{
	RecvWorkers:   4,
	DeliveryDepth: 1024,
	SendShards:    2,
	WALBatch:      64,
}

// udpSpec is what one experiment varies.
type udpSpec struct {
	name    string // temporary-directory prefix
	n       int    // replicas
	group   ids.GroupID
	order   core.OrderMode
	suspect int64           // conviction timeout, ns
	opts    runtime.Options // per replica; WAL is set to the replica's log
	mesh    transport.MeshConfig
	msgs    int // measured messages after the warm-up
	// deliver observes every payload delivery at replica i (0-based)
	// before the replica's count includes it; may be nil.
	deliver func(c *udpCluster, i, seq int, d core.Delivery)
}

type udpNode struct {
	r    *runtime.Runner
	mesh *transport.UDPMesh
	log  *wal.Log
	dir  string
	got  atomic.Int64 // payload messages delivered
}

type udpCluster struct {
	nodes     []*udpNode
	group     ids.GroupID
	total     int     // warm-up plus measured messages
	sendTimes []int64 // wall clock at which each seq was last sent
	latMu     sync.Mutex
	lat       trace.Histogram // send->deliver ms of sampled deliveries
	done      chan struct{}   // closed once replica 1 has delivered total
}

// newUDPCluster resets the trace counters and brings up s's cluster
// with its group created. On error it has already released everything.
func newUDPCluster(s udpSpec) (*udpCluster, error) {
	trace.ResetCounters()
	c := &udpCluster{
		group:     s.group,
		total:     udpWarmup + s.msgs,
		sendTimes: make([]int64, udpWarmup+s.msgs),
		done:      make(chan struct{}),
	}
	var members ids.Membership
	for i := 1; i <= s.n; i++ {
		members = members.Add(ids.ProcessorID(i))
	}
	for i := 0; i < s.n; i++ {
		nd := &udpNode{}
		c.nodes = append(c.nodes, nd)
		if err := c.start(s, i, nd); err != nil {
			c.close()
			return nil, err
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if err := a.mesh.AddPeer(b.mesh.LocalAddr()); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	for _, nd := range c.nodes {
		nd.r.Do(func(node *core.Node, now int64) {
			node.CreateGroup(now, s.group, members)
		})
	}
	return c, nil
}

// start opens replica i's log and runner.
func (c *udpCluster) start(s udpSpec, i int, nd *udpNode) error {
	p := ids.ProcessorID(i + 1)
	dir, err := os.MkdirTemp("", fmt.Sprintf("ftmp-%s-p%d-", s.name, p))
	if err != nil {
		return err
	}
	nd.dir = dir
	dfs, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	nd.log, _, err = wal.Open(wal.Config{
		FS:     dfs,
		Policy: wal.SyncAlways,
		Now:    func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(p)
	cfg.Order = s.order
	cfg.PGMP.SuspectTimeout = s.suspect
	cb := core.Callbacks{
		Transmit: func(wire.MulticastAddr, []byte) {}, // installed by the runner
		Deliver: func(d core.Delivery) {
			if len(d.Payload) != udpPayload {
				return
			}
			if s.deliver != nil {
				s.deliver(c, i, int(binary.BigEndian.Uint64(d.Payload)), d)
			}
			if nd.got.Add(1) == int64(c.total) && i == 0 {
				close(c.done)
			}
		},
	}
	opts := s.opts
	opts.WAL = nd.log
	nd.r, err = runtime.New(cfg, cb, func(h transport.Handler) (transport.Transport, error) {
		m, err := transport.NewUDPMeshConfig("127.0.0.1:0", h, s.mesh)
		nd.mesh = m
		return m, err
	}, opts)
	return err
}

// send multicasts message seq from replica i on connection conn as
// request req, stamping its send time.
func (c *udpCluster) send(i, seq int, conn ids.ConnectionID, req ids.RequestNum) error {
	payload := make([]byte, udpPayload)
	binary.BigEndian.PutUint64(payload, uint64(seq))
	var err error
	atomic.StoreInt64(&c.sendTimes[seq], time.Now().UnixNano())
	c.nodes[i].r.Do(func(node *core.Node, now int64) {
		err = node.Multicast(now, c.group, conn, req, payload)
	})
	return err
}

// sample adds seq's send->deliver latency to the distribution, unless
// seq belongs to the warm-up.
func (c *udpCluster) sample(seq int) {
	if seq < udpWarmup {
		return
	}
	lat := float64(time.Now().UnixNano()-atomic.LoadInt64(&c.sendTimes[seq])) / 1e6
	c.latMu.Lock()
	c.lat.Add(lat)
	c.latMu.Unlock()
}

// warmup sends the warm-up messages through send, closed loop, and
// waits until replica i has delivered them.
func (c *udpCluster) warmup(i int, send func(seq int) error) error {
	for seq := 0; seq < udpWarmup; seq++ {
		if err := send(seq); err != nil {
			return err
		}
	}
	if !c.await(30*time.Second, udpWarmup, i) {
		return fmt.Errorf("warmup never delivered (%d/%d)", c.nodes[i].got.Load(), udpWarmup)
	}
	return nil
}

// openLoop offers the measured messages at rate msg/s and returns when
// the last was sent, with the time the first was due: message k goes
// out at start + k/rate whether or not earlier ones have been
// delivered. A send the core rejects (e.g. transient group gating) is
// retried on a tight schedule — dropping it would deadlock completion
// accounting — but the clock never stops, so sustained rejection shows
// up as achieved < offered. before, if set, runs ahead of message k.
func (c *udpCluster) openLoop(rate float64, send func(seq int) error, before func(k int)) time.Time {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < c.total-udpWarmup; k++ {
		if before != nil {
			before(k)
		}
		if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
			time.Sleep(d)
		}
		for send(udpWarmup+k) != nil {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return start
}

// finish waits for replica 1 to deliver the whole stream and returns
// the time since start.
func (c *udpCluster) finish(start time.Time) (time.Duration, error) {
	select {
	case <-c.done:
		return time.Since(start), nil
	case <-time.After(120 * time.Second):
		return 0, fmt.Errorf("measured stream never completed (%d/%d)", c.nodes[0].got.Load(), c.total)
	}
}

// await polls until every listed replica has delivered n payload
// messages; false if d passes first.
func (c *udpCluster) await(d time.Duration, n int, replicas ...int) bool {
	deadline := time.Now().Add(d)
	for {
		behind := false
		for _, i := range replicas {
			behind = behind || c.nodes[i].got.Load() < int64(n)
		}
		if !behind {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// delivered sums the payload deliveries of every replica.
func (c *udpCluster) delivered() int64 {
	var sum int64
	for _, nd := range c.nodes {
		sum += nd.got.Load()
	}
	return sum
}

// shutdown makes every replica's log durable and stops it (a replica
// already stopped just has its log synced).
func (c *udpCluster) shutdown() error {
	for _, nd := range c.nodes {
		if err := nd.r.WALSync(); err != nil {
			return err
		}
		nd.r.Close()
	}
	return nil
}

// close releases every runner, log and directory; safe on a partial
// bring-up and after shutdown.
func (c *udpCluster) close() {
	for _, nd := range c.nodes {
		if nd.r != nil {
			nd.r.Close()
		}
		if nd.log != nil {
			_ = nd.log.Close()
		}
		if nd.dir != "" {
			_ = os.RemoveAll(nd.dir)
		}
	}
}
