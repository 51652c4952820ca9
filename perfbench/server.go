package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	lix "github.com/lix-go/lix"
)

// The server process serves one stack built with the public API, the way
// lixserve does with its production defaults (metrics on, 1% request
// tracing, 50ms slow log, top-64 hot keys). It reads its records from
// stdin (records*16 bytes, little-endian key then value), prints
// "listening <addr>" once it accepts connections, and then answers
// control lines on stdin:
//
//	stats   one JSON line of serverStats
//	heap    the same after a forced GC
//	quit    graceful shutdown
//
// End of stdin also shuts it down, so it never outlives the client.

// serverStats is the server's view of itself for the client.
type serverStats struct {
	Len        int                 `json:"len"`
	HeapAlloc  uint64              `json:"heap_alloc"`
	TotalAlloc uint64              `json:"total_alloc"`
	NumGC      uint32              `json:"num_gc"`
	Metrics    lix.MetricsSnapshot `json:"metrics"`
	Store      *storeStats         `json:"store,omitempty"`
}

func serverMain(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "btree", "index kind")
		shards  = fs.Int("shards", 0, "ShardRW shards")
		records = fs.Int("records", 0, "records to read from stdin")
		dir     = fs.String("dir", "", "durable directory (EngineLSM, fsync always)")
		traced  = fs.Bool("traced", false, "trace every group, record search metrics and time store calls")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	in := bufio.NewReaderSize(os.Stdin, 1<<20)
	var recs []lix.KV
	if *records > 0 {
		recs = make([]lix.KV, *records)
		var buf [recordBytes]byte
		for i := range recs {
			if _, err := io.ReadFull(in, buf[:]); err != nil {
				return fmt.Errorf("read records: %w", err)
			}
			recs[i] = lix.KV{
				Key:   lix.Key(binary.LittleEndian.Uint64(buf[:8])),
				Value: lix.Value(binary.LittleEndian.Uint64(buf[8:])),
			}
		}
	}

	m := lix.NewMetrics("perfbench")
	cfg := lix.StackConfig{
		Kind:    *kind,
		Shards:  *shards,
		Metrics: m,
		Trace:   &lix.TraceOptions{SampleRate: 0.01, SlowThreshold: 50 * time.Millisecond, TopK: 64},
	}
	if *dir != "" {
		cfg.Dir, cfg.Fsync, cfg.StorageEngine = *dir, lix.FsyncAlways, lix.EngineLSM
	}
	if *traced {
		cfg.Trace.SampleRate = 1
		lix.EnableSearchMetrics(m)
	}
	stack, err := lix.NewStack(recs, cfg)
	if err != nil {
		return fmt.Errorf("stack: %w", err)
	}
	recs = nil

	var store lix.ServeStore = stack
	var timed *timedStore
	if *traced {
		timed = newTimedStore(stack)
		store = timed
	}
	srv := lix.NewServer(store, lix.ServeConfig{
		Addr:       "127.0.0.1:0",
		Metrics:    m,
		Tracer:     stack.Tracer(),
		CloseStore: true,
	})
	if err := srv.Start(); err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fmt.Printf("listening %s\n", srv.Addr())

	out := json.NewEncoder(os.Stdout)
	for {
		line, err := in.ReadString('\n')
		if err != nil || line == "quit\n" {
			return srv.Shutdown()
		}
		var ms runtime.MemStats
		if line == "heap\n" {
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		st := serverStats{
			Len:        stack.Len(),
			HeapAlloc:  ms.HeapAlloc,
			TotalAlloc: ms.TotalAlloc,
			NumGC:      ms.NumGC,
			Metrics:    m.Snapshot(),
		}
		if timed != nil {
			st.Store = timed.stats()
		}
		if err := out.Encode(st); err != nil {
			return err
		}
	}
}

// storeStats is what the timing decorator saw: store calls, the ops they
// carried, the nanoseconds spent inside them, and ops per shard.
type storeStats struct {
	Calls    uint64   `json:"calls"`
	Ops      uint64   `json:"ops"`
	NS       uint64   `json:"ns"`
	ShardOps []uint64 `json:"shard_ops"`
}

// timedStore is the ServeStore the traced server calls: it forwards every
// call, batch and span variants included, to the stack and times it, so
// the server-side cost outside the store can be told apart.
type timedStore struct {
	s     *lix.Stack
	route func(lix.Key) int
	calls atomic.Uint64
	ops   atomic.Uint64
	ns    atomic.Uint64
	shard [numShards]atomic.Uint64
}

func newTimedStore(s *lix.Stack) *timedStore {
	t := &timedStore{s: s, route: func(lix.Key) int { return 0 }}
	if sh := s.Sharded(); sh != nil {
		r := sh.Router()
		t.route = func(k lix.Key) int { return r.Route(k) }
	}
	return t
}

func (t *timedStore) stats() *storeStats {
	st := &storeStats{Calls: t.calls.Load(), Ops: t.ops.Load(), NS: t.ns.Load()}
	for i := range t.shard {
		st.ShardOps = append(st.ShardOps, t.shard[i].Load())
	}
	return st
}

func (t *timedStore) done(start time.Time, keys ...lix.Key) {
	t.ns.Add(uint64(time.Since(start)))
	t.calls.Add(1)
	t.ops.Add(uint64(len(keys)))
	for _, k := range keys {
		t.shard[t.route(k)].Add(1)
	}
}

func (t *timedStore) Get(k lix.Key) (lix.Value, bool) {
	start := time.Now()
	v, ok := t.s.Get(k)
	t.done(start, k)
	return v, ok
}

func (t *timedStore) Insert(k lix.Key, v lix.Value) {
	start := time.Now()
	t.s.Insert(k, v)
	t.done(start, k)
}

func (t *timedStore) Delete(k lix.Key) bool {
	start := time.Now()
	ok := t.s.Delete(k)
	t.done(start, k)
	return ok
}

func (t *timedStore) Range(lo, hi lix.Key, fn func(lix.Key, lix.Value) bool) int {
	start := time.Now()
	n := t.s.Range(lo, hi, fn)
	t.done(start, lo)
	return n
}

func (t *timedStore) LookupBatch(keys []lix.Key) ([]lix.Value, []bool) {
	return t.LookupBatchSpan(keys, nil)
}

func (t *timedStore) LookupBatchSpan(keys []lix.Key, sp *lix.Span) ([]lix.Value, []bool) {
	start := time.Now()
	vals, oks := t.s.LookupBatchSpan(keys, sp)
	t.done(start, keys...)
	return vals, oks
}

func (t *timedStore) InsertBatch(recs []lix.KV) { t.InsertBatchSpan(recs, nil) }

func (t *timedStore) InsertBatchSpan(recs []lix.KV, sp *lix.Span) {
	start := time.Now()
	t.s.InsertBatchSpan(recs, sp)
	t.ns.Add(uint64(time.Since(start)))
	t.calls.Add(1)
	t.ops.Add(uint64(len(recs)))
	for _, r := range recs {
		t.shard[t.route(r.Key)].Add(1)
	}
}

func (t *timedStore) DeleteBatch(keys []lix.Key) []bool { return t.DeleteBatchSpan(keys, nil) }

func (t *timedStore) DeleteBatchSpan(keys []lix.Key, sp *lix.Span) []bool {
	start := time.Now()
	oks := t.s.DeleteBatchSpan(keys, sp)
	t.done(start, keys...)
	return oks
}

func (t *timedStore) Close() error { return t.s.Close() }
