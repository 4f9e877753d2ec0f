package main

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
)

// The open-loop workloads multicast a numbered stream of fixed-size
// messages. Each message's payload is derived from the workload seed
// and its sequence number, so every replica can check what it was
// handed; the stream records when each message was due and when each
// replica delivered it.

const (
	payloadLen = 64
	chunkBits  = 16
	chunkLen   = 1 << chunkBits
	maxChunks  = 1024 // 64M messages: more than any run can offer
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
)

// timeline maps sequence numbers to run-clock times (0: not yet). Its
// chunks are allocated by the generator before the messages they cover
// are sent, and read and written atomically from any goroutine.
type timeline struct {
	chunks [maxChunks]atomic.Pointer[[chunkLen]int64]
}

func (t *timeline) ensure(seq int) {
	c := seq >> chunkBits
	if t.chunks[c].Load() == nil {
		t.chunks[c].Store(new([chunkLen]int64))
	}
}

func (t *timeline) slot(seq int) *int64 {
	return &t.chunks[seq>>chunkBits].Load()[seq&(chunkLen-1)]
}

func (t *timeline) get(seq int) int64 { return atomic.LoadInt64(t.slot(seq)) }

// stream is one open-loop message stream and its delivery record.
type stream struct {
	seed    uint64
	next    atomic.Int64 // sequence numbers below next have been allocated
	due     timeline
	at      []timeline // per replica
	dups    atomic.Int64
	corrupt atomic.Int64
	// hash and count are the order digest of each replica: written only
	// by that replica's delivery goroutine, read after it has quiesced.
	hash  []uint64
	count []atomic.Int64
}

func newStream(seed int64, replicas int) *stream {
	s := &stream{
		seed:  uint64(seed),
		at:    make([]timeline, replicas),
		hash:  make([]uint64, replicas),
		count: make([]atomic.Int64, replicas),
	}
	for i := range s.hash {
		s.hash[i] = fnvOffset
	}
	return s
}

// splitmix64 is the seeded generator behind every payload byte.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// payload returns message seq: the sequence number, then seeded bytes.
func (s *stream) payload(seq int) []byte {
	p := make([]byte, payloadLen)
	binary.BigEndian.PutUint64(p, uint64(seq))
	for i := 8; i < payloadLen; i += 8 {
		binary.BigEndian.PutUint64(p[i:], s.word(seq, i))
	}
	return p
}

func (s *stream) word(seq, off int) uint64 {
	return splitmix64(s.seed ^ uint64(seq)<<8 ^ uint64(off))
}

// valid reports whether p is exactly message seq's payload.
func (s *stream) valid(seq int, p []byte) bool {
	for i := 8; i < payloadLen; i += 8 {
		if binary.BigEndian.Uint64(p[i:]) != s.word(seq, i) {
			return false
		}
	}
	return true
}

// alloc reserves n more sequence numbers, returning the first.
func (s *stream) alloc(n int) int {
	lo := int(s.next.Load())
	for seq := lo; seq < lo+n; seq += chunkLen {
		s.ensure(seq)
	}
	s.ensure(lo + n - 1)
	s.next.Store(int64(lo + n))
	return lo
}

func (s *stream) ensure(seq int) {
	s.due.ensure(seq)
	for i := range s.at {
		s.at[i].ensure(seq)
	}
}

// deliver records replica r's delivery of d, checking its content and
// that it is the first delivery of that message at r. It runs on r's
// delivery goroutine.
func (s *stream) deliver(r int, d core.Delivery) {
	t := now()
	if len(d.Payload) != payloadLen {
		s.corrupt.Add(1)
		return
	}
	seq := int(binary.BigEndian.Uint64(d.Payload))
	if seq < 0 || seq >= int(s.next.Load()) || !s.valid(seq, d.Payload) {
		s.corrupt.Add(1)
		return
	}
	if !atomic.CompareAndSwapInt64(s.at[r].slot(seq), 0, t) {
		s.dups.Add(1)
		return
	}
	s.hash[r] = (s.hash[r] ^ uint64(seq)) * fnvPrime
	s.count[r].Add(1)
}

// waitDelivered waits up to d for replicas rs to deliver [lo, hi),
// rescanning only what is still missing.
func (s *stream) waitDelivered(rs []int, lo, hi int, d time.Duration) bool {
	next := make([]int, len(rs))
	for i := range next {
		next[i] = lo
	}
	return waitFor(d, func() bool {
		for i, r := range rs {
			for next[i] < hi && s.at[r].get(next[i]) != 0 {
				next[i]++
			}
			if next[i] < hi {
				return false
			}
		}
		return true
	})
}

// latencies returns every replica-in-rs delivery latency of [lo, hi),
// timed from each message's due time; a message not yet delivered
// counts as infinitely late.
func (s *stream) latencies(rs []int, lo, hi int) []int64 {
	out := make([]int64, 0, (hi-lo)*len(rs))
	for _, r := range rs {
		for seq := lo; seq < hi; seq++ {
			at := s.at[r].get(seq)
			if at == 0 {
				out = append(out, math.MaxInt64)
				continue
			}
			out = append(out, at-s.due.get(seq))
		}
	}
	return out
}

// offerStats is what the generator observed.
type offerStats struct {
	lag     hist // how late each batch went out, ns
	refused atomic.Int64
}

// offer sends messages [lo, hi) from sender on group g, open loop:
// message k is due at start + (k-lo)/rate whatever happened to earlier
// ones. Every message already due goes out in one Runner.Do, so a late
// generator catches up instead of drifting; a send the core refuses is
// retried shortly while the clock keeps running.
func (s *stream) offer(sender *node, g ids.GroupID, lo, hi int, rate float64, start int64, m *meter, st *offerStats) {
	interval := float64(time.Second) / rate
	dueOf := func(k int) int64 { return start + int64(float64(k-lo)*interval) }
	for seq := lo; seq < hi; seq++ {
		atomic.StoreInt64(s.due.slot(seq), dueOf(seq))
	}
	const maxBatch = 64
	payloads := make([][]byte, 0, maxBatch)
	for k := lo; k < hi; {
		t := now()
		if d := dueOf(k) - t; d > 0 {
			time.Sleep(time.Duration(d))
			continue
		}
		st.lag.add(t - dueOf(k))
		j := k + 1
		for j < hi && j-k < maxBatch && dueOf(j) <= t {
			j++
		}
		payloads = payloads[:0]
		for seq := k; seq < j; seq++ {
			payloads = append(payloads, s.payload(seq))
		}
		sent := k
		t0 := m.start()
		sender.r.Do(func(nd *core.Node, loopNow int64) {
			m.done(&m.doWait, t0)
			for i, p := range payloads {
				tm := m.start()
				err := nd.Multicast(loopNow, g, ids.ConnectionID{}, 0, p)
				m.done(&m.multicast, tm)
				if err != nil {
					st.refused.Add(1)
					return
				}
				sent = k + i + 1
			}
		})
		if sent == k {
			if sender.dead.Load() {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		k = sent
	}
}
