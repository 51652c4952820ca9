package main

import (
	"fmt"
	"math"
	"time"
)

// Background-cycle wait of a durable traced run: at least minCheckpoints
// LSM checkpoints and one compaction, in steps of backgroundStep, for at
// most maxBackgroundWait beyond the planned closed loop.
const (
	minCheckpoints    = 3
	backgroundStep    = 2 * time.Second
	maxBackgroundWait = 40 * time.Second
)

// traced measures the per-layer metrics. An untraced server (production
// tracing) gives the baseline throughput, scan latencies and generator
// lag; a traced server (every group traced, search metrics on, store
// calls timed) gives the per-layer sums; the ladder gives each layer's
// self cost in process.
func traced(w *workload, d *data, dur time.Duration, work string, fails *failures, rep *report) (int64, error) {
	// The untraced run gets 2/5 of the time; the traced run spends 2/5 in
	// its closed loop, where the per-layer sums come from (and where a
	// durable workload writes enough to checkpoint and compact), and 1/5
	// in its open loop.
	plainDur, closedDur, openDur := dur*2/5, dur*2/5, dur/5
	var attempted int64

	// Untraced baseline, with the restart and read-back.
	dir, tmp := runDirs(w, work, "plain")
	srv, err := startServer(w, d.keys, dir, tmp, false)
	if err != nil {
		return 0, err
	}
	plain, err := serve(w, d, srv, dir, tmp, work, plainDur, fails)
	if err != nil {
		return 0, err
	}
	attempted += plain.attempted

	// Traced server.
	dir, tmp = runDirs(w, work, "traced")
	srv, err = startServer(w, d.keys, dir, tmp, true)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	sess, err := dialSession(d, srv.addr, fails)
	if err != nil {
		return 0, err
	}
	s0, err := srv.stats(false)
	if err != nil {
		return 0, err
	}
	p0, err := srv.counters()
	if err != nil {
		return 0, err
	}
	rd0, wr0 := sess.bytesRead.Load(), sess.bytesWritten.Load()
	tc, err := sess.closed(closedDur, nil)
	if err != nil {
		return 0, err
	}
	// A durable workload keeps its closed loop going until the LSM has
	// checkpointed minCheckpoints times and compacted once, so the store
	// and sst metrics cover whole background cycles.
	for extra := time.Duration(0); w.Durable && extra < maxBackgroundWait; extra += backgroundStep {
		st, err := srv.stats(false)
		if err != nil {
			return 0, err
		}
		dd := statsDelta{s0, st}
		if dd.event("checkpoint") >= minCheckpoints && dd.event("compaction") >= 1 {
			break
		}
		if _, err := sess.closed(backgroundStep, nil); err != nil {
			return 0, err
		}
	}
	s1, err := srv.stats(false)
	if err != nil {
		return 0, err
	}
	p1, err := srv.counters()
	if err != nil {
		return 0, err
	}
	rd1, wr1 := sess.bytesRead.Load(), sess.bytesWritten.Load()
	topen, err := sess.open(openDur, w.OpenRate)
	if err != nil {
		return 0, err
	}
	sess.close()
	attempted += sess.attempted.Load()
	s2, err := srv.stats(false)
	if err != nil {
		return 0, err
	}

	// Serve/wire, from the closed-loop phase of the traced server.
	dc := statsDelta{s0, s1}
	groups := dc.counter("groups")
	ops := dc.counter("requests")
	groupLen := dc.hist("group_len")
	meanGroup := groupLen.mean()
	rep.set("serve.ops_per_group", meanGroup, "ops", fmt.Sprintf("%d groups", groupLen.count))
	rep.set("serve.decode_ns_per_group", dc.hist("decode_ns").per(groups), "ns", "")
	rep.set("serve.dispatch_ns_per_group", dc.hist("dispatch_ns").per(groups), "ns", "covers the store calls")
	storeCalls := float64(s1.Store.Calls - s0.Store.Calls)
	storeOps := float64(s1.Store.Ops - s0.Store.Ops)
	rep.set("serve.store_calls_per_op", storeCalls/storeOps, "calls", "")

	// The open-loop phase: client round trip per op minus store time per op.
	oStoreNS := float64(s2.Store.NS - s1.Store.NS)
	oStoreOps := float64(s2.Store.Ops - s1.Store.Ops)
	rtt := float64(topen.sentNS) / float64(topen.ops)
	rep.set("serve.self_ns_per_op", rtt-oStoreNS/oStoreOps, "ns",
		fmt.Sprintf("open-loop round trip %.0f ns - store %.0f ns", rtt, oStoreNS/oStoreOps))

	base := plain.closed.kops()
	rep.set("trace.overhead_frac", (base-tc.kops())/base, "frac", fmt.Sprintf("untraced %.1f kops, traced %.1f kops", base, tc.kops()))
	rep.set("throughput.closed_kops", base, "kops", "untraced closed loop")

	// Shard.
	rep.set("shard.ns_per_group", dc.hist("shard_ns").per(groups), "ns", "")
	var maxShard, sumShard float64
	for i := range s1.Store.ShardOps {
		n := float64(s1.Store.ShardOps[i] - s0.Store.ShardOps[i])
		maxShard = math.Max(maxShard, n)
		sumShard += n
	}
	rep.set("shard.imbalance", maxShard/(sumShard/float64(len(s1.Store.ShardOps))), "ratio", "busiest shard ops / mean")

	// Kind search.
	probes, window := dc.hist("search_probes"), dc.hist("search_window")
	rep.set("kind.probes_per_search", probes.mean(), "probes", fmt.Sprintf("%d searches", probes.count))
	rep.set("kind.window_per_search", window.mean(), "slots", "")

	// Store and LSM, over the whole traced run.
	dr := statsDelta{s0, s2}
	fsync := dr.hist("fsync_ns")
	writes := float64(dr.counter("inserts") + dr.counter("deletes"))
	rep.set("store.wal_ns_per_group", dc.hist("wal_ns").per(groups), "ns", "")
	rep.set("store.fsync_ns", fsync.mean(), "ns", fmt.Sprintf("%d fsyncs", fsync.count))
	rep.set("store.writes_per_fsync", ratio(writes, float64(fsync.count)), "writes", "")
	userBytes := float64(dc.counter("inserts")*recordBytes + dc.counter("deletes")*8)
	fileWrite := float64((p1.wchar - p0.wchar) - (rd1 - rd0))
	rep.set("store.file_write_bytes_per_user_byte", ratio(fileWrite, userBytes), "B/B",
		fmt.Sprintf("wchar minus socket replies: %.0f B for %.0f user B", fileWrite, userBytes))
	rep.set("store.checkpoints", float64(dr.event("checkpoint")), "count", "")
	rep.set("sst.compactions", float64(dr.event("compaction")), "count", "")
	rep.set("sst.runs", float64(s2.Metrics.Gauges["lsm_runs"]), "count", "at the end")
	rep.set("sst.run_bytes", float64(s2.Metrics.Gauges["lsm_run_bytes"]), "B", "at the end")
	rep.set("sst.filter_bytes", float64(s2.Metrics.Gauges["lbf_filter_bytes"]), "B", "at the end")
	rep.set("sst.filter_probes", float64(dr.counter("lsm_filter_probes")), "count", "runs are not on the read path")

	// Pages and process, from the closed-loop phase.
	fileRead := float64((p1.rchar - p0.rchar) - (wr1 - wr0))
	rep.set("page.file_read_bytes_per_op", fileRead/float64(ops), "B",
		fmt.Sprintf("rchar minus socket requests; the stack's own page_hits/page_misses read %d/%d",
			dc.counter("page_hits"), dc.counter("page_misses")))
	rep.set("proc.cpu_us_per_op", float64(p1.cpuTicks-p0.cpuTicks)*1e6/clockTicks/float64(ops), "us", "")
	rep.set("proc.alloc_bytes_per_op", float64(s1.TotalAlloc-s0.TotalAlloc)/float64(ops), "B", "")
	rep.set("proc.gc_cycles", float64(s1.NumGC-s0.NumGC), "count", "in the traced closed loop")

	// The untraced run's results that are too host-bound to gate on, or
	// that only some workloads have.
	rep.set("driver.max_lag_ms", float64(plain.open.maxLag)/1e6, "ms", fmt.Sprintf("bound %d ms", lagBoundMS))
	for _, l := range []struct {
		name string
		f    int
		q    float64
	}{
		{"latency.get_p50_us", famGet, 0.50},
		{"latency.get_p99_us", famGet, 0.99},
		{"latency.write_p50_us", famWrite, 0.50},
		{"latency.write_p99_us", famWrite, 0.99},
		{"latency.scan_p50_us", famScan, 0.50},
		{"latency.scan_p99_us", famScan, 0.99},
	} {
		v, n := plain.open.quantileUS(l.f, l.q)
		rep.set(l.name, v, "us", fmt.Sprintf("n=%d, untraced open loop", n))
	}
	rep.set("store.recover_s", plain.recover.Seconds(), "s", "SIGKILL to listening again")
	rep.set("store.disk_bytes_per_key", plain.diskPerKey, "B/key", "")

	if err := srv.quit(); err != nil {
		return 0, fmt.Errorf("server shutdown: %w", err)
	}

	// The ladder.
	rungs, err := runLadder(w, d, int(math.Round(meanGroup)), work)
	if err != nil {
		return 0, err
	}
	byName := map[string]rungResult{}
	for _, r := range rungs {
		byName[r.name] = r
		fmt.Printf("ladder/%-31s %16.1f %-6s %d ops, get %.0f ns, set %.0f ns\n",
			r.name, r.nsPerOp(), "ns/op", r.ops, r.nsPer(opGet), r.nsPer(opSet))
	}
	bare, shard, top := byName["bare"], byName["shard"], byName["obs"]
	below := shard
	storeNS := 0.0
	if dur, ok := byName["durable"]; ok {
		below = dur
		storeNS = writeNS(dur) - writeNS(shard)
	}
	rep.set("kind.get_ns", bare.nsPer(opGet), "ns", "ladder bare rung")
	rep.set("kind.set_ns", bare.nsPer(opSet), "ns", "ladder bare rung")
	rep.set("kind.splits", float64(bare.splits), "count", fmt.Sprintf("in %d ladder ops", bare.ops))
	rep.set("kind.retrains", float64(bare.retrain), "count", fmt.Sprintf("in %d ladder ops", bare.ops))
	rep.set("shard.ns_per_op", shard.nsPerOp()-bare.nsPerOp(), "ns", "ladder: shard - bare")
	rep.set("store.ns_per_write", storeNS, "ns", "ladder: durable - shard, per SET/DEL")
	rep.set("obs.ns_per_op", top.nsPerOp()-below.nsPerOp(), "ns", "ladder: obs - "+below.name)
	failed := fails.n.Load()
	rep.set("driver.failed_frac", float64(failed)/float64(attempted), "frac", "")
	return attempted, nil
}

func writeNS(r rungResult) float64 {
	n := r.kindOps[opSet] + r.kindOps[opDel]
	if n == 0 {
		return 0
	}
	return float64(r.kindNS[opSet]+r.kindNS[opDel]) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsDelta is the difference of two server stats snapshots.
type statsDelta struct{ a, b serverStats }

func (d statsDelta) counter(name string) uint64 {
	return d.b.Metrics.Counters[name] - d.a.Metrics.Counters[name]
}

func (d statsDelta) event(name string) uint64 {
	return d.b.Metrics.Events[name] - d.a.Metrics.Events[name]
}

type histDelta struct{ count, sum uint64 }

func (d statsDelta) hist(name string) histDelta {
	a, b := d.a.Metrics.Histograms[name], d.b.Metrics.Histograms[name]
	return histDelta{count: b.Count - a.Count, sum: b.Sum - a.Sum}
}

// mean is the exact mean from the histogram's sum and count.
func (h histDelta) mean() float64 { return ratio(float64(h.sum), float64(h.count)) }

// per spreads the histogram's sum over n events (stage histograms skip
// groups where the stage took no time, so their own count undercounts).
func (h histDelta) per(n uint64) float64 { return ratio(float64(h.sum), float64(n)) }
