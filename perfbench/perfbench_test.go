package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ftmp/internal/transport"
	"ftmp/internal/wal"
	"ftmp/internal/wire"
)

// plainTransport is a transport without SendBatch.
type plainTransport struct{ sends int }

func (p *plainTransport) Join(wire.MulticastAddr) error         { return nil }
func (p *plainTransport) Leave(wire.MulticastAddr) error        { return nil }
func (p *plainTransport) Send(wire.MulticastAddr, []byte) error { p.sends++; return nil }
func (p *plainTransport) Close() error                          { return nil }

func TestTransportWrapperKeepsBatchSenderIffInnerHasIt(t *testing.T) {
	var dead atomic.Bool
	m := &meter{}
	if _, ok := meterTransport(&plainTransport{}, m, &dead).(transport.BatchSender); ok {
		t.Fatal("wrapper of a transport without SendBatch claims to be a BatchSender")
	}
	mesh, err := transport.NewUDPMeshConfig("127.0.0.1:0", func([]byte, wire.MulticastAddr) {}, transport.MeshConfig{SendBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	w := meterTransport(mesh, m, &dead)
	b, ok := w.(transport.BatchSender)
	if !ok {
		t.Fatal("wrapper of the batched mesh hides its SendBatch, so send shards would stop using sendmmsg")
	}
	if err := b.SendBatch([]transport.Datagram{{Data: []byte("abc")}, {Data: []byte("de")}}); err != nil {
		t.Fatal(err)
	}
	if got := m.txBytes.Load(); got != 5 {
		t.Fatalf("SendBatch counted %d bytes, want 5", got)
	}
	dead.Store(true)
	inner := &plainTransport{}
	if err := meterTransport(inner, m, &dead).Send(wire.MulticastAddr{}, []byte("x")); err != nil || inner.sends != 0 {
		t.Fatalf("a dead node's send reached the transport (err %v, sends %d)", err, inner.sends)
	}
}

func TestSyncFSDiscardsOnlyUnsyncedBytes(t *testing.T) {
	mem := wal.NewMemFS()
	fs := newSyncFS(mem, &meter{})
	f, err := fs.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	write := func(s string) {
		t.Helper()
		if _, err := f.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	write("durable-")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write("volatile")
	if got := fs.synced("seg"); got != int64(len("durable-")) {
		t.Fatalf("synced length %d, want %d", got, len("durable-"))
	}
	fs.crash()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write after crash succeeded")
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync after crash succeeded")
	}
	if err := fs.discardUnsynced(); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("seg")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable-" {
		t.Fatalf("after discarding, file holds %q, want %q", data, "durable-")
	}
}

func TestSyncFSKeepsEveryRecordALogSynced(t *testing.T) {
	mem := wal.NewMemFS()
	fs := newSyncFS(mem, &meter{})
	l, _, err := wal.Open(wal.Config{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rec := wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{ReqNum: 1, Payload: []byte{byte(i)}}}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	fs.crash()
	if err := l.Append(wal.Record{Type: wal.RecOp, Op: &wal.OpRecord{Payload: []byte{99}}}); err == nil {
		t.Fatal("append after crash succeeded")
	}
	if err := fs.discardUnsynced(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := wal.Open(wal.Config{FS: mem, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 10 || rec.TornTail != nil {
		t.Fatalf("recovered %d records (torn tail %v), want the 10 synced ones", len(rec.Records), rec.TornTail)
	}
}

func TestCoveredNsMergesOverlaps(t *testing.T) {
	spans := []span{{start: 5, end: 15}, {start: 10, end: 20}, {start: 30, end: 40}, {start: 95, end: 200}}
	if got := coveredNs(0, 100, spans); got != 15+10+5 {
		t.Fatalf("covered %d ns, want 30", got)
	}
}

func TestWindowsSplitSamplesByMarks(t *testing.T) {
	sec := int64(time.Second)
	marks := []mark{{at: 0}, {at: sec, cpu: time.Millisecond}, {at: 2 * sec, cpu: 3 * time.Millisecond}}
	// Two operations of two samples each in the first window, one in the
	// second, one before the first mark and one after the last.
	samples := []sample{{at: -1, lat: 99}, {at: 10, lat: 1}, {at: 20, lat: 3}, {at: 30, lat: 5}, {at: 40, lat: 7},
		{at: sec, lat: 2}, {at: sec + 5, lat: 4}, {at: 2 * sec, lat: 99}}
	var w windows
	w.add(samples, marks, 2)
	if len(w.rate) != 2 || w.rate[0] != 2 || w.rate[1] != 1 {
		t.Fatalf("rates %v, want [2 1]", w.rate)
	}
	if w.p50[0] != 3 || w.p99[0] != 7 || w.p50[1] != 2 || w.p99[1] != 4 {
		t.Fatalf("p50 %v p99 %v, want [3 2] and [7 4]", w.p50, w.p99)
	}
	if w.cpuPerOp[0] != 500 || w.cpuPerOp[1] != 2000 {
		t.Fatalf("cpu per op %v us, want [500 2000]", w.cpuPerOp)
	}
	if got := midMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Fatalf("midMean %v, want 3.5 (the outer quarters dropped)", got)
	}
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	return names
}

// TestSmoke runs every workload briefly, traced and untraced, and checks
// that it passes its correctness checks and reports exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up real UDP clusters")
	}
	dir := t.TempDir()
	for _, name := range []string{"iiop-durable", "mcast-open", "leader-failover"} {
		for _, traced := range []bool{false, true} {
			o, err := workloads[name](config{seed: 7, seconds: 1.5, trace: traced, workdir: dir})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(o.problems) > 0 || o.failed > 0 || o.attempted < 1 {
				t.Fatalf("%s: attempted %d, failed %d, problems %v", name, o.attempted, o.failed, o.problems)
			}
			got, key := o.e2e, "end_to_end"
			if traced {
				got, key = o.layer, "per_layer"
			}
			want := declared(t, key)
			var names []string
			for _, m := range got {
				names = append(names, m.name+" "+m.unit)
			}
			if a, b := mustJSON(names), mustJSON(want); !bytes.Equal(a, b) {
				t.Fatalf("%s reports %s\nBENCHMARK.json declares %s", name, a, b)
			}
		}
	}
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}
