package runtime

import (
	stdruntime "runtime"
	"sync/atomic"

	"ftmp/internal/core"
	"ftmp/internal/wire"
)

// rxRing is the hand-off between transport reader goroutines and the
// event loop: a fixed-size MPSC ring in which each slot walks empty →
// filled (raw datagram claimed and written by a reader) → empty again
// (the loop drained it).
//
// With decode workers a slot passes through one more state: a worker
// decodes the filled slot with its own wire.Decoder into the slot's
// entry of a parallel result array and marks it decoded. Readers claim
// slots in arrival order and workers claim them in the same order, but
// decode completes out of order; the loop consumes only the contiguous
// ready prefix, so datagrams reach the core in exact arrival order
// either way. Resequencing here matters: handing packets to the core
// out of order would read as loss and trigger spurious NACKs.
//
// The decode results live apart from the slots so a ring without
// workers — the loop-affine runner, which decodes through
// core.Node.HandlePacket — keeps its slots as small as a raw datagram
// reference.
//
// Overflow (ring full) drops the datagram, exactly as a congested NIC
// would; the caller counts it.
type rxRing struct {
	slots   []rxSlot
	decoded []rxDecoded // per-slot decode results; nil without workers
	ready   uint32      // slot state the loop consumes
	mask    uint64

	head  atomic.Uint64 // next slot a reader claims
	claim atomic.Uint64 // next slot a worker claims
	tail  atomic.Uint64 // next slot the loop drains

	// work carries one token per filled slot so idle workers block
	// instead of spinning; capacity len(slots) guarantees the producer
	// send never blocks. nil without workers.
	work chan struct{}
	// notify is the coalesced loop wakeup (capacity 1).
	notify chan struct{}
}

const (
	slotEmpty uint32 = iota
	slotFilled
	slotDecoded
)

type rxSlot struct {
	state atomic.Uint32
	data  []byte
	addr  wire.MulticastAddr
}

type rxDecoded struct {
	msg wire.Message
	bad bool // decode failed
}

// newRxRing creates a ring with capacity rounded up to a power of two.
// decode provisions the worker stage (result array and work tokens).
func newRxRing(capacity int, decode bool) *rxRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &rxRing{
		slots:  make([]rxSlot, n),
		ready:  slotFilled,
		mask:   uint64(n - 1),
		notify: make(chan struct{}, 1),
	}
	if decode {
		r.decoded = make([]rxDecoded, n)
		r.ready = slotDecoded
		r.work = make(chan struct{}, n)
	}
	return r
}

// offer claims a slot for one received datagram. Multiple transport
// readers may call it concurrently. Returns false (drop) when the ring
// is full.
func (r *rxRing) offer(data []byte, addr wire.MulticastAddr) bool {
	for {
		h := r.head.Load()
		if h-r.tail.Load() >= uint64(len(r.slots)) {
			return false
		}
		if r.head.CompareAndSwap(h, h+1) {
			// The room check above proves the loop finished with this
			// slot (it resets state before advancing tail past it).
			s := &r.slots[h&r.mask]
			s.data, s.addr = data, addr
			s.state.Store(slotFilled)
			if r.work != nil {
				r.work <- struct{}{}
			} else {
				r.wake()
			}
			return true
		}
	}
}

// decodeOne blocks for one work token, claims the next slot in arrival
// order and decodes it with dec. Returns false when stop closes.
func (r *rxRing) decodeOne(dec *wire.Decoder, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-r.work:
	}
	c := r.claim.Add(1) - 1
	s := &r.slots[c&r.mask]
	// A token may arrive from reader B while reader A is still writing
	// the earlier slot this worker claimed; the window is a few stores.
	for s.state.Load() != slotFilled {
		select {
		case <-stop:
			return false
		default:
			stdruntime.Gosched()
		}
	}
	d := &r.decoded[c&r.mask]
	msg, err := dec.Decode(s.data)
	if err != nil {
		d.bad = true
	} else {
		// The hot-path body is decoder scratch, overwritten by this
		// worker's next decode; clone it before publishing.
		msg.Body = wire.CloneBody(msg.Body)
		d.msg, d.bad = msg, false
	}
	s.state.Store(slotDecoded)
	r.wake()
	return true
}

// wake nudges the loop; calls coalesce on the 1-slot channel.
func (r *rxRing) wake() {
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// next pops the oldest filled datagram, if it is ready. Loop-only, for
// a ring without workers.
func (r *rxRing) next() ([]byte, wire.MulticastAddr, bool) {
	t := r.tail.Load()
	s := &r.slots[t&r.mask]
	if s.state.Load() != slotFilled {
		return nil, wire.MulticastAddr{}, false
	}
	data, addr := s.data, s.addr
	s.data = nil
	s.state.Store(slotEmpty)
	r.tail.Store(t + 1)
	return data, addr, true
}

// drain appends up to max messages from the contiguous decoded prefix
// to batch (in arrival order) and returns it plus the number of
// undecodable datagrams skipped. Loop-only, for a ring with workers.
func (r *rxRing) drain(max int, batch []core.Incoming) ([]core.Incoming, uint64) {
	var errs uint64
	for i := 0; i < max; i++ {
		t := r.tail.Load()
		s := &r.slots[t&r.mask]
		if s.state.Load() != slotDecoded {
			break
		}
		d := &r.decoded[t&r.mask]
		if d.bad {
			errs++
		} else {
			batch = append(batch, core.Incoming{Msg: d.msg, Raw: s.data, Addr: s.addr})
		}
		s.data, d.msg = nil, wire.Message{}
		s.state.Store(slotEmpty)
		r.tail.Store(t + 1)
	}
	return batch, errs
}

// hasReady reports whether the next slot in order is ready for the loop
// (the loop self-rearms its wakeup when a drain hit its batch cap).
func (r *rxRing) hasReady() bool {
	return r.slots[r.tail.Load()&r.mask].state.Load() == r.ready
}
