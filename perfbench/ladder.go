package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/obs"
)

// The ladder replays one connection's op stream in process, through the
// public API, one layer at a time: bare kind, then +shard, then +durable
// (durable workloads only), then +obs/trace. Each rung's cost over the
// rung below is that layer's self cost. Ops go in batches of the mean
// group length the traced server saw, split into homogeneous runs the way
// the server dispatches them.

type rung struct {
	name string
	cfg  lix.StackConfig
}

type rungResult struct {
	name    string
	ops     int64
	ns      int64
	kindNS  [4]int64 // by opKind
	kindOps [4]int64
	splits  uint64
	retrain uint64
}

func (r rungResult) nsPerOp() float64 { return float64(r.ns) / float64(r.ops) }

func (r rungResult) nsPer(k opKind) float64 {
	if r.kindOps[k] == 0 {
		return 0
	}
	return float64(r.kindNS[k]) / float64(r.kindOps[k])
}

// ladderOps bounds each rung's replay; ladderBudget bounds its time (the
// fsync-always rungs stop early, and report per-op costs over what ran).
const (
	ladderOps    = 200_000
	ladderBudget = 2 * time.Second
)

func runLadder(w *workload, d *data, group int, work string) ([]rungResult, error) {
	recs := make([]lix.KV, len(d.keys))
	for i, k := range d.keys {
		recs[i] = lix.KV{Key: lix.Key(k), Value: lix.Value(payload(k))}
	}
	ops := make([]op, ladderOps)
	for i := range ops {
		ops[i] = d.streams[0].op(uint64(i))
	}
	if group < 1 {
		group = 1
	}

	dir := filepath.Join(work, "ladder-db")
	shard := lix.StackConfig{Kind: w.Kind, Shards: numShards}
	top := shard
	rungs := []rung{
		{"bare", lix.StackConfig{Kind: w.Kind}},
		{"shard", shard},
	}
	if w.Durable {
		top.Dir, top.Fsync, top.StorageEngine = dir, lix.FsyncAlways, lix.EngineLSM
		rungs = append(rungs, rung{"durable", top})
	}
	top.Metrics = lix.NewMetrics("ladder")
	top.Trace = &lix.TraceOptions{SampleRate: 0.01, SlowThreshold: 50 * time.Millisecond, TopK: 64}
	rungs = append(rungs, rung{"obs", top})

	var out []rungResult
	for _, r := range rungs {
		os.RemoveAll(dir)
		res, err := replay(r.name, r.cfg, recs, ops, group)
		if err != nil {
			return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		out = append(out, res)
	}
	os.RemoveAll(dir)
	return out, nil
}

// replay builds one rung's stack and runs ops through it.
func replay(name string, cfg lix.StackConfig, recs []lix.KV, ops []op, group int) (rungResult, error) {
	res := rungResult{name: name}
	st, err := lix.NewStack(recs, cfg)
	if err != nil {
		return res, err
	}
	defer st.Close()
	var events *lix.Metrics
	if name == "bare" {
		// Structural events only: the hook costs nothing until a split
		// or retrain happens.
		if o, ok := st.Unwrap().(interface{ SetObserver(obs.Recorder) }); ok {
			events = lix.NewMetrics("ladder-bare")
			o.SetObserver(events)
		}
	}
	tr := st.Tracer()
	keys := make([]lix.Key, 0, group)
	kvs := make([]lix.KV, 0, group)
	var scan []lix.KV
	start := time.Now()
	for len(ops) > 0 && time.Since(start) < ladderBudget {
		n := group
		if n > len(ops) {
			n = len(ops)
		}
		batch := ops[:n]
		ops = ops[n:]
		sp := tr.Start(len(batch))
		for i := 0; i < len(batch); {
			k := batch[i].kind
			j := i + 1
			for k != opScan && j < len(batch) && batch[j].kind == k {
				j++
			}
			run := batch[i:j]
			t0 := time.Now()
			switch {
			case k == opScan:
				scan = scan[:0]
				st.Range(lix.Key(run[0].key), lix.Key(run[0].hi), func(k lix.Key, v lix.Value) bool {
					scan = append(scan, lix.KV{Key: k, Value: v})
					return true
				})
			case len(run) == 1 && sp == nil:
				switch k {
				case opGet:
					st.Get(lix.Key(run[0].key))
				case opSet:
					st.Insert(lix.Key(run[0].key), lix.Value(run[0].val))
				case opDel:
					st.Delete(lix.Key(run[0].key))
				}
			case k == opSet:
				kvs = kvs[:0]
				for _, o := range run {
					kvs = append(kvs, lix.KV{Key: lix.Key(o.key), Value: lix.Value(o.val)})
				}
				st.InsertBatchSpan(kvs, sp)
			default:
				keys = keys[:0]
				for _, o := range run {
					keys = append(keys, lix.Key(o.key))
				}
				if k == opGet {
					st.LookupBatchSpan(keys, sp)
				} else {
					st.DeleteBatchSpan(keys, sp)
				}
			}
			res.kindNS[k] += int64(time.Since(t0))
			res.kindOps[k] += int64(len(run))
			i = j
		}
		tr.Finish(sp)
		res.ops += int64(len(batch))
	}
	res.ns = int64(time.Since(start))
	if events != nil {
		res.splits = events.Events.Count(lix.EvNodeSplit)
		res.retrain = events.Events.Count(lix.EvRetrain)
	}
	return res, nil
}
