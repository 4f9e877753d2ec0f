package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/transport"
	"ftmp/internal/wal"
)

// node is one processor of a benchmark cluster: a runner on a real UDP
// loopback mesh, optionally with a write-ahead log (fsync=always) in a
// directory of its own.
type node struct {
	id   ids.ProcessorID
	r    *runtime.Runner
	mesh *transport.UDPMesh
	dead atomic.Bool
	fs   *syncFS // nil when not durable
	log  *wal.Log
	dir  string
	// final holds the node's stats, read just before it crashed.
	final core.Stats
}

// nodeSpec describes one node. callbacks builds the node's callbacks
// once the node exists, so they can refer to its runner.
type nodeSpec struct {
	cfg       core.Config
	callbacks func(n *node) core.Callbacks
	opts      runtime.Options
	mesh      transport.MeshConfig
	durable   bool // open a log; the caller decides who owns it
	// execWAL hands the log to the runtime's delivery executor (group
	// commit). Without it the caller attaches the log elsewhere.
	execWAL bool
}

// pipelined is every opt-in stage of the runtime datapath: decode
// workers, the ordered delivery executor, send shards and
// sendmmsg/recvmmsg vectors.
func pipelined() (runtime.Options, transport.MeshConfig) {
	return runtime.Options{
			RecvWorkers:   4,
			DeliveryDepth: 1024,
			SendShards:    2,
			WALBatch:      64,
			SendBatch:     32,
		}, transport.MeshConfig{
			RecvBatch: 32,
			SendBatch: 32,
		}
}

// cluster is one bring-up of a set of nodes.
type cluster struct {
	dir   string
	m     *meter
	nodes []*node
}

func newCluster(workdir string, m *meter) (*cluster, error) {
	dir, err := os.MkdirTemp(workdir, "cluster-")
	if err != nil {
		return nil, err
	}
	return &cluster{dir: dir, m: m}, nil
}

// add starts one node.
func (c *cluster) add(spec nodeSpec) (*node, error) {
	n := &node{id: spec.cfg.Self}
	c.nodes = append(c.nodes, n)
	if spec.durable {
		n.dir = filepath.Join(c.dir, fmt.Sprintf("p%d", n.id))
		dfs, err := wal.NewDirFS(n.dir)
		if err != nil {
			return nil, err
		}
		n.fs = newSyncFS(dfs, c.m)
		n.log, _, err = wal.Open(wal.Config{FS: n.fs, Policy: wal.SyncAlways})
		if err != nil {
			return nil, err
		}
		if spec.execWAL {
			spec.opts.WAL = n.log
		}
	}
	r, err := runtime.New(spec.cfg, spec.callbacks(n), func(h transport.Handler) (transport.Transport, error) {
		m, err := transport.NewUDPMeshConfig("127.0.0.1:0", meterHandler(h, c.m, &n.dead), spec.mesh)
		if err != nil {
			return nil, err
		}
		n.mesh = m
		return meterTransport(m, c.m, &n.dead), nil
	}, spec.opts)
	if err != nil {
		return nil, err
	}
	n.r = r
	return n, nil
}

// link makes every node a peer of every node, itself included (the
// mesh's stand-in for multicast loopback).
func (c *cluster) link() error {
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if err := a.mesh.AddPeer(b.mesh.LocalAddr()); err != nil {
				return err
			}
		}
	}
	return nil
}

// createGroup installs group g with every node as a member.
func (c *cluster) createGroup(g ids.GroupID) {
	var members ids.Membership
	for _, n := range c.nodes {
		members = members.Add(n.id)
	}
	for _, n := range c.nodes {
		n.r.Do(func(nd *core.Node, now int64) { nd.CreateGroup(now, g, members) })
	}
}

// crash fail-stops n and returns when, on the run clock, it stopped:
// its datagrams stop in both directions, its log refuses every later
// write and sync, and its runner stops. The bytes it had not synced are
// still on disk until discardUnsynced.
func (n *node) crash() int64 {
	n.r.Do(func(nd *core.Node, _ int64) { n.final = nd.Stats() })
	n.dead.Store(true)
	at := now()
	if n.fs != nil {
		n.fs.crash()
	}
	n.r.Close()
	return at
}

// stats sums every node's protocol counters (a crashed node's as of the
// crash).
func (c *cluster) stats() core.Stats {
	var s core.Stats
	for _, n := range c.nodes {
		st := n.final
		if !n.dead.Load() {
			n.r.Do(func(nd *core.Node, _ int64) { st = nd.Stats() })
		}
		s.RMP.Duplicates += st.RMP.Duplicates
		s.RMP.OutOfOrder += st.RMP.OutOfOrder
		s.RMP.NacksSent += st.RMP.NacksSent
		s.RMP.Retransmissions += st.RMP.Retransmissions
		if st.ROMP.MaxPending > s.ROMP.MaxPending {
			s.ROMP.MaxPending = st.ROMP.MaxPending
		}
		s.PGMP.SuspectsRaised += st.PGMP.SuspectsRaised
		s.PGMP.Convictions += st.PGMP.Convictions
		s.PGMP.RoundsStarted += st.PGMP.RoundsStarted
		s.PGMP.ViewsInstalled += st.PGMP.ViewsInstalled
		s.HeartbeatsSent += st.HeartbeatsSent
		s.MessagesSent += st.MessagesSent
		s.PacketsIn += st.PacketsIn
		s.PackedMsgs += st.PackedMsgs
	}
	return s
}

// close stops every node. The cluster's directory stays until the run
// ends: on a file system that discards freed blocks, removing it now
// would load the disk under the next measurement.
func (c *cluster) close() {
	for _, n := range c.nodes {
		if n.r != nil {
			n.r.Close()
		}
		if n.log != nil {
			_ = n.log.Close() // a crashed node's log reports its crash here
		}
	}
}

// waitFor polls cond every 200µs until it holds or d elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// sampler probes the live nodes every few milliseconds: how long a
// Runner.Do waits for the event loop, how many messages the ordering
// layer holds, and how many goroutines run. stop ends it and waits for
// it.
func (c *cluster) sampler(g ids.GroupID) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
			}
			c.m.goroutines.add(int64(goruntime.NumGoroutine()))
			for _, n := range c.nodes {
				if n.dead.Load() {
					continue
				}
				t0 := now()
				n.r.Do(func(nd *core.Node, _ int64) {
					c.m.doWait.add(now() - t0)
					c.m.spans.Add(1)
					if st, ok := nd.Status(g); ok {
						c.m.rompPending.add(int64(st.ROMPPending))
					}
				})
			}
		}
	}()
	return func() { close(quit); <-done }
}
