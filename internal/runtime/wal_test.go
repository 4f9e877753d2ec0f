package runtime_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/core"
	"ftmp/internal/ids"
	"ftmp/internal/runtime"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// durableCrash runs a two-replica group on loop-affine runners (inline
// executor, no decode workers) whose replica 1 owns a WAL with the given
// fsync policy. Five messages are delivered, replica 2 leaves (a second
// logged view), and then — after WALSync when sync is set — the
// filesystem loses power. It returns replica 1's upcalls and the replay
// of what its log kept.
func durableCrash(t *testing.T, policy wal.Policy, sync bool) ([]string, []core.ViewChange, runtime.Replay) {
	t.Helper()
	fs := wal.NewMemFS()
	w, _, err := wal.Open(wal.Config{FS: fs, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	var walErrs atomic.Int64
	nodes := newPipeNodes(t, 2, runtime.Options{OnWALError: func(error) { walErrs.Add(1) }}, w)
	for i := 1; i <= 5; i++ {
		src := nodes[i%2]
		src.r.Do(func(nd *core.Node, now int64) {
			if err := nd.Multicast(now, grp, ids.ConnectionID{}, ids.RequestNum(i), []byte{byte('a' + i)}); err != nil {
				t.Errorf("multicast: %v", err)
			}
		})
		// One at a time, so the agreed order is the send order.
		if !waitFor(t, 10*time.Second, func() bool { return len(nodes[0].delivered()) >= i }) {
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	nodes[1].r.Do(func(nd *core.Node, now int64) {
		if err := nd.Leave(now, grp); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
	if !waitFor(t, 10*time.Second, func() bool { return len(nodes[0].viewsSeen()) >= 2 }) {
		t.Fatalf("replica 1 saw views %v, want bootstrap and removal", nodes[0].viewsSeen())
	}
	if sync {
		if err := nodes[0].r.WALSync(); err != nil {
			t.Fatalf("WALSync: %v", err)
		}
	}
	if n := walErrs.Load(); n != 0 {
		t.Fatalf("%d wal errors", n)
	}

	fs.Crash()
	_, rec, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return nodes[0].delivered(), nodes[0].viewsSeen(), runtime.RecoverReplay(rec.Records)
}

// TestRunnerDurableSurvivesCrash: under SyncAlways every delivery and
// view a loop-affine runner hands the application is already durable,
// so a power loss with no explicit sync keeps the full history and the
// last installed epoch.
func TestRunnerDurableSurvivesCrash(t *testing.T) {
	got, views, rp := durableCrash(t, wal.SyncAlways, false)
	if len(got) != 5 || len(views) != 2 {
		t.Fatalf("application saw %d deliveries, %d views", len(got), len(views))
	}
	if len(rp.Deliveries) != 5 {
		t.Fatalf("recovered %d deliveries, want 5", len(rp.Deliveries))
	}
	for i, d := range rp.Deliveries {
		if got := string(d.Payload); got != string(byte('a'+i+1)) {
			t.Errorf("delivery %d payload = %q", i, got)
		}
	}
	last := views[len(views)-1]
	ep, ok := rp.Epochs[grp]
	if !ok {
		t.Fatalf("no recovered epoch for group %v", grp)
	}
	if ep.ViewTS != last.ViewTS || !reflect.DeepEqual(ep.Members, last.Members) {
		t.Errorf("recovered epoch = %+v, want viewTS %v members %v", ep, last.ViewTS, last.Members)
	}
	if rp.MaxTS != last.ViewTS {
		t.Errorf("MaxTS = %v, want %v", rp.MaxTS, last.ViewTS)
	}
}

// TestRunnerWALSyncLoopAffine: under SyncNever nothing is forced until
// WALSync, which on a loop-affine runner must sync the log on the loop
// — after it, a power loss keeps every delivery.
func TestRunnerWALSyncLoopAffine(t *testing.T) {
	got, _, rp := durableCrash(t, wal.SyncNever, true)
	if len(rp.Deliveries) != len(got) {
		t.Fatalf("recovered %d deliveries, want all %d", len(rp.Deliveries), len(got))
	}
	for i, d := range rp.Deliveries {
		if string(d.Payload) != got[i] {
			t.Errorf("recovered delivery %d = %q, want %q", i, d.Payload, got[i])
		}
	}
}

// TestRecoverReplayDedupes collapses duplicated records (a copied
// segment) to one delivery each.
func TestRecoverReplayDedupes(t *testing.T) {
	op := wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{
		ReqNum: 1, Request: true, TS: ids.MakeTimestamp(5, 2), Payload: []byte("x"),
	}}
	rp := runtime.RecoverReplay([]wal.Record{op, op, op})
	if len(rp.Deliveries) != 1 {
		t.Fatalf("recovered %d deliveries, want 1", len(rp.Deliveries))
	}
}

// TestBootstrapReinstallsEpoch: with a recovered epoch the node's group
// comes back at the logged membership and view timestamp; without one
// it is a plain bootstrap at the configured membership.
func TestBootstrapReinstallsEpoch(t *testing.T) {
	mk := func() *core.Node {
		return core.NewNode(core.DefaultConfig(2), core.Callbacks{
			Transmit: func(wire.MulticastAddr, []byte) {},
			Deliver:  func(core.Delivery) {},
		})
	}

	recovered := ids.NewMembership(2, 3) // processor 1 had already left
	viewTS := ids.MakeTimestamp(42, 3)
	rp := runtime.Replay{
		Epochs: map[ids.GroupID]wal.EpochRecord{100: {Group: 100, ViewTS: viewTS, Members: recovered}},
		MaxTS:  ids.MakeTimestamp(90, 3),
	}
	n := mk()
	runtime.Bootstrap(n, 0, 100, ids.NewMembership(1, 2, 3), rp)
	st, ok := n.Status(100)
	if !ok {
		t.Fatal("group not installed")
	}
	if !reflect.DeepEqual(st.Members, recovered) {
		t.Errorf("members = %v, want recovered %v", st.Members, recovered)
	}

	n2 := mk()
	runtime.Bootstrap(n2, 0, 100, ids.NewMembership(1, 2, 3), runtime.Replay{})
	st2, ok := n2.Status(100)
	if !ok {
		t.Fatal("group not installed on cold bootstrap")
	}
	if !reflect.DeepEqual(st2.Members, ids.NewMembership(1, 2, 3)) {
		t.Errorf("cold members = %v", st2.Members)
	}
}
