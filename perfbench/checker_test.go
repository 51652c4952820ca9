package main

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/wire"
)

// testData is a small scan workload: a fixed key set, so every reply
// kind the checker knows is predictable.
func testData(t *testing.T) *data {
	t.Helper()
	w := &workload{Name: "test", Dist: dataset.Clustered, Records: 2000, Kind: "btree",
		GetFrac: 0.5, SetFrac: 0.2, ScanFrac: 0.3, ScanLen: 20}
	d, err := newData(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ownedKeys returns keys of conn's partition, in order.
func ownedKeys(d *data, conn int) []uint64 {
	var out []uint64
	for _, k := range d.keys {
		if owner(k) == conn {
			out = append(out, k)
		}
	}
	return out
}

// scanOf returns the stored records in [lo, hi] as the server would.
func scanOf(d *data, lo, hi uint64) []core.KV {
	var out []core.KV
	for _, k := range d.keys {
		if k >= lo && k <= hi {
			out = append(out, core.KV{Key: k, Value: payload(k)})
		}
	}
	return out
}

// countFailures feeds one request and its reply through the client's
// receive path and returns how many failures it counted.
func countFailures(t *testing.T, d *data, p pending, rep wire.Msg) int64 {
	t.Helper()
	fails := &failures{out: io.Discard}
	s := &session{d: d, fails: fails}
	cli, srv := net.Pipe()
	defer cli.Close()
	s.r[0] = wire.NewReader(cli, 0)
	go func() {
		w := wire.NewWriter(srv, 0)
		w.Write(&rep)
		w.Flush()
		srv.Close()
	}()
	pend := make(chan pending, 1)
	pend <- p
	close(pend)
	if err := s.receive(0, pend, func() int64 { return 0 }, func(pending, int64) {}); err != nil {
		t.Fatal(err)
	}
	return fails.n.Load()
}

func TestCheckerCountsEveryMismatch(t *testing.T) {
	d := testData(t)
	own := ownedKeys(d, 0)
	k := own[10]
	lo, hi := d.keys[100], d.keys[130]
	good := scanOf(d, lo, hi)

	swapped := append([]core.KV(nil), good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	missing := append(append([]core.KV(nil), good[:5]...), good[6:]...)
	var foreign []core.KV
	for _, r := range good {
		if owner(r.Key) != 0 {
			r.Value ^= 0x55
		}
		foreign = append(foreign, r)
	}
	outside := append(append([]core.KV(nil), good...), core.KV{Key: hi + 1, Value: payload(hi + 1)})

	get := pending{o: op{kind: opGet, key: k}, e: expect{val: payload(k), ok: true}}
	scan := pending{o: op{kind: opScan, key: lo, hi: hi}}
	cases := []struct {
		name string
		p    pending
		rep  wire.Msg
		want int64
	}{
		{"right value", get, wire.Msg{Op: wire.RValue, Val: payload(k)}, 0},
		{"wrong value", get, wire.Msg{Op: wire.RValue, Val: payload(k) + 1}, 1},
		{"missing key", get, wire.Msg{Op: wire.RNil}, 1},
		{"deleted key served", pending{o: op{kind: opGet, key: k}}, wire.Msg{Op: wire.RValue, Val: payload(k)}, 1},
		{"error reply", get, wire.Msg{Op: wire.RErr, Err: "boom"}, 1},
		{"wrong delete outcome", pending{o: op{kind: opDel, key: k}, e: expect{ok: true}}, wire.Msg{Op: wire.RBool}, 1},
		{"right scan", scan, wire.Msg{Op: wire.RKVs, Recs: good}, 0},
		{"out-of-order scan", scan, wire.Msg{Op: wire.RKVs, Recs: swapped}, 1},
		{"scan missing a record", scan, wire.Msg{Op: wire.RKVs, Recs: missing}, 1},
		{"scan past its bound", scan, wire.Msg{Op: wire.RKVs, Recs: outside}, 1},
		{"scan value never written", scan, wire.Msg{Op: wire.RKVs, Recs: foreign}, 1},
	}
	for _, c := range cases {
		if got := countFailures(t, d, c.p, c.rep); got != c.want {
			t.Errorf("%s: counted %d failures, want %d", c.name, got, c.want)
		}
	}
}

// A foreign key in a SCAN may hold any value its owner has already sent,
// and no value it has not.
func TestCheckerForeignScanValues(t *testing.T) {
	d := testData(t)
	var sent [numConns]atomic.Uint64
	ck := checker{d: d, sent: &sent}
	var idx uint64
	var o op
	for idx = 0; ; idx++ {
		if o = d.streams[1].op(idx); o.kind == opSet {
			break
		}
	}
	if ck.written(o.key, o.val) {
		t.Fatal("a SET not yet sent was accepted")
	}
	sent[1].Store(idx + 1)
	if !ck.written(o.key, o.val) {
		t.Fatal("a sent SET was rejected")
	}
	if ck.written(o.key+1, o.val) {
		t.Fatal("a SET's value was accepted for another key")
	}
}

func TestVerifyCountsLostAcknowledgedWrites(t *testing.T) {
	d := testData(t)
	recs := make([]lix.KV, len(d.keys))
	for i, k := range d.keys {
		recs[i] = lix.KV{Key: k, Value: payload(k)}
	}
	stack, err := lix.NewStack(recs, lix.StackConfig{Kind: "btree"})
	if err != nil {
		t.Fatal(err)
	}
	srv := lix.NewServer(stack, lix.ServeConfig{Addr: "127.0.0.1:0", ErrorLog: io.Discard, DrainTimeout: time.Second})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	// The model says conn 0 acknowledged these writes; the server holds
	// only the bulk load plus the one write that did land.
	own := ownedKeys(d, 0)
	applied, overwritten, deleted := own[1], own[2], own[3]
	fresh := own[4] + 1
	for inSorted(d.keys, fresh) {
		fresh++
	}
	stack.Insert(applied, 42)
	fails := &failures{out: io.Discard}
	s := &session{d: d, fails: fails}
	for c := range s.m {
		s.m[c] = newModel(d.keys)
	}
	s.m[0].over[applied] = entry{val: 42, present: true}
	s.m[0].over[overwritten] = entry{val: 43, present: true} // lost overwrite
	s.m[0].over[deleted] = entry{}                           // lost delete
	s.m[0].over[fresh] = entry{val: 44, present: true}       // lost insert
	n, err := s.verify(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("verified %d keys, want 4", n)
	}
	if got := fails.n.Load(); got != 3 {
		t.Fatalf("counted %d lost writes, want 3", got)
	}
}
