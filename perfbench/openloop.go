package main

import (
	"fmt"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
)

// The two open-loop workloads share their cluster: three durable
// replicas on the pipelined datapath (decode workers, delivery executor
// with WAL group commit, send shards, sendmmsg/recvmmsg vectors),
// multicasting one stream in one group.

const (
	streamGroup    = ids.GroupID(1800)
	streamReplicas = 3
	warmupMsgs     = 200
)

// streamCluster is one bring-up of the open-loop cluster.
type streamCluster struct {
	*cluster
	s *stream
	// setup runs from the start of the bring-up until the first message
	// is delivered everywhere; bootstrap from the group's creation at
	// the last member until then.
	setup, bootstrap time.Duration
	// drops0 is overflowDrops when the last offer began.
	drops0 uint64
}

// allReplicas lists every replica index.
func allReplicas() []int {
	rs := make([]int, streamReplicas)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// streamSpec is what the open-loop workloads configure differently.
type streamSpec struct {
	order   core.OrderMode
	pack    bool // FTMP 1.1 message packing
	suspect time.Duration
	sender  int // replica index of the generator
}

// bringUpStream starts the cluster and serves the stream's first
// message.
func bringUpStream(cfg config, m *meter, spec streamSpec) (*streamCluster, error) {
	t0 := now()
	c, err := newCluster(cfg.workdir, m)
	if err != nil {
		return nil, err
	}
	sc := &streamCluster{cluster: c, s: newStream(cfg.seed, streamReplicas)}
	opts, mesh := pipelined()
	for i := 0; i < streamReplicas; i++ {
		nc := core.DefaultConfig(ids.ProcessorID(i + 1))
		nc.Order = spec.order
		if spec.pack {
			nc.Pack = core.DefaultPackConfig()
		}
		nc.PGMP.SuspectTimeout = int64(spec.suspect)
		_, err := c.add(nodeSpec{
			cfg: nc,
			callbacks: func(n *node) core.Callbacks {
				return core.Callbacks{Deliver: func(d core.Delivery) {
					if !n.dead.Load() {
						sc.s.deliver(i, d)
					}
				}}
			},
			opts:    opts,
			mesh:    mesh,
			durable: true,
			execWAL: true,
		})
		if err != nil {
			c.close()
			return nil, err
		}
	}
	if err := c.link(); err != nil {
		c.close()
		return nil, err
	}
	c.createGroup(streamGroup)
	created := now()
	seq := sc.s.alloc(1)
	var st offerStats
	sc.s.offer(c.nodes[spec.sender], streamGroup, seq, seq+1, 1, now(), m, &st)
	if !sc.s.waitDelivered(allReplicas(), seq, seq+1, 10*time.Second) {
		c.close()
		return nil, fmt.Errorf("the first message was not delivered everywhere within 10s")
	}
	var last int64
	for r := range sc.s.at {
		if at := sc.s.at[r].get(seq); at > last {
			last = at
		}
	}
	sc.setup = time.Duration(last - t0)
	sc.bootstrap = time.Duration(last - created)
	return sc, nil
}

// plainStreams brings the stream cluster up plainBringUps times,
// noting each bring-up in bu, and closes each.
func plainStreams(cfg config, m *meter, spec streamSpec, bu *bringUps) error {
	for i := 0; i < plainBringUps; i++ {
		sc, err := bringUpStream(cfg, m, spec)
		if err != nil {
			return err
		}
		bu.note(sc.setup, sc.bootstrap)
		sc.close()
	}
	return nil
}

// settle waits for replicas rs to deliver everything sent, makes their
// logs durable and checks the stream at them, counting its messages as
// attempted and the undelivered ones as failed.
func (sc *streamCluster) settle(o *outcome, rs []int) {
	sc.s.waitDelivered(rs, 0, int(sc.s.next.Load()), drainLimit)
	for _, r := range rs {
		err := sc.nodes[r].r.WALSync()
		o.check(err == nil, "replica %d: WAL sync: %v", r+1, err)
	}
	o.attempted += sc.s.next.Load()
	o.failed += sc.checkStream(o, rs)
}

// warmup sends a burst of unmeasured messages and waits until every
// replica has delivered them.
func (sc *streamCluster) warmup(sender int, m *meter) error {
	lo := sc.s.alloc(warmupMsgs)
	var st offerStats
	sc.s.offer(sc.nodes[sender], streamGroup, lo, lo+warmupMsgs, 20000, now(), m, &st)
	if !sc.s.waitDelivered(allReplicas(), lo, lo+warmupMsgs, 10*time.Second) {
		return fmt.Errorf("warmup messages not delivered everywhere within 10s")
	}
	return nil
}

// checkStream verifies the stream at replicas rs, which must have
// quiesced: every message sent was delivered exactly once with the
// payload it was sent with, in one order at all of them. It returns how
// many messages some replica in rs never delivered.
func (sc *streamCluster) checkStream(o *outcome, rs []int) (undelivered int64) {
	s := sc.s
	total := int(s.next.Load())
	o.check(s.corrupt.Load() == 0, "%d deliveries carried a payload that was never sent", s.corrupt.Load())
	o.check(s.dups.Load() == 0, "%d messages were delivered twice at one replica", s.dups.Load())
	for seq := 0; seq < total; seq++ {
		for _, r := range rs {
			if s.at[r].get(seq) == 0 {
				undelivered++
				break
			}
		}
	}
	o.check(undelivered == 0, "%d of %d messages were not delivered at every replica", undelivered, total)
	for _, r := range rs {
		o.check(s.hash[r] == s.hash[rs[0]] && s.count[r].Load() == s.count[rs[0]].Load(),
			"replica %d delivered in another order than replica %d", r+1, rs[0]+1)
	}
	return undelivered
}

// throughput is the delivered rate of [lo, hi) at replicas rs: messages
// per second from the first one's due time to the last delivery.
func (s *stream) throughput(rs []int, lo, hi int) (msgs int, ns int64) {
	var last int64
	for _, r := range rs {
		for seq := lo; seq < hi; seq++ {
			if at := s.at[r].get(seq); at > last {
				last = at
			}
		}
	}
	return hi - lo, last - s.due.get(lo)
}

// samples returns replicas rs' delivery latencies of [lo, hi), each
// stamped with its message's due time; undelivered messages are left
// out (the correctness checks count them).
func (s *stream) samples(rs []int, lo, hi int) []sample {
	out := make([]sample, 0, (hi-lo)*len(rs))
	for _, r := range rs {
		for seq := lo; seq < hi; seq++ {
			if at := s.at[r].get(seq); at != 0 {
				due := s.due.get(seq)
				out = append(out, sample{at: due, lat: at - due})
			}
		}
	}
	return out
}
