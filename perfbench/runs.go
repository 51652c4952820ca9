package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// A run starts fresh servers to time set-up until it has at least
// minSetups and has spent setupBudget on them, or has maxSetups; setup_s
// is their median. The last one serves the measured phases.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// closedShare is the part of the measured time spent in the closed loop,
// whose server CPU per op, scaled to a reference host, is an end-to-end
// metric; the open loop gets the rest. Throughput and latencies are
// printed but not gated on: on a shared virtual machine they move with
// the host's other guests by more than any bound the benchmark may set.
const closedShare = 0.8

// After the load stops, the server's heap is read heapSamples times,
// heapGap apart, each after a forced GC, and heap_bytes_per_key uses the
// smallest. A durable server's flush or compaction still running holds
// buffers that are not the index's memory: a single reading on
// write-durable was 2.5 times the steady heap in two runs of ten.
const (
	heapSamples = 8
	heapGap     = 250 * time.Millisecond
)

// baseSample is how many bulk-loaded keys are read back from a restarted
// in-memory server (which has no writes to recover).
const baseSample = 4096

// endToEnd measures the end-to-end metrics with production tracing.
func endToEnd(w *workload, d *data, dur time.Duration, work string, fails *failures, rep *report) (int64, error) {
	var setups []float64
	var srv *serverProc
	var dir, tmp string
	for spent := time.Duration(0); ; {
		dir, tmp = runDirs(w, work, fmt.Sprint(len(setups)))
		p, err := startServer(w, d.keys, dir, tmp, false)
		if err != nil {
			return 0, err
		}
		setups = append(setups, p.setup.Seconds())
		spent += p.setup
		if len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget) {
			srv = p
			break
		}
		p.kill()
		os.RemoveAll(dir)
		os.RemoveAll(tmp)
	}
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d: %v", len(setups), fmtFloats(setups)))
	res, err := serve(w, d, srv, dir, tmp, work, dur, fails)
	if err != nil {
		return 0, err
	}
	fmt.Printf("%-38s %16.4f %-6s %s\n", "throughput_kops", res.closed.kops(), "kops", fmt.Sprintf("closed loop, %d conns x lockstep batches of %d, %d ops in %v, windows %s, steal %s",
		numConns, window, res.closed.ops, res.closed.dur, fmtFloats(res.closed.windowKops()),
		fmtFloats(res.closed.windowField(func(w closedWindow) float64 { return w.steal }))))
	for f := 0; f < numFams; f++ {
		for _, q := range []float64{0.50, 0.99} {
			name := fmt.Sprintf("%s_p%02.0f_us", famNames[f], q*100)
			vals, n := res.open.windowQuantilesUS(f, q)
			note := fmt.Sprintf("n=%d, open loop %d ops/s, from due time, median of windows %s", n, w.OpenRate, fmtFloats(vals))
			if n > 0 {
				fmt.Printf("%-38s %16.4f %-6s %s\n", name, median(vals), "us", note)
			}
		}
	}
	us, calib := res.closed.windowCPUUSPerOp()
	fmt.Printf("%-38s %16.4f %-6s %s\n", "cpu_us_per_op", median(us), "us", "server user+system CPU per op in the closed loop, median of windows "+fmtFloats(us))
	rep.set("ref_cpu_us_per_op", median(us)*refWakeNS/median(calib), "us", fmt.Sprintf("the same where a wake-up round trip costs %d ns of CPU; median calibration of windows %s ns",
		refWakeNS, fmtFloats(calib)))
	rep.set("heap_bytes_per_key", res.heapPerKey, "B/key", "smallest server heap after a forced GC / live keys, of readings "+fmtFloats(res.heaps))
	res.print()
	return res.attempted, nil
}

// served is what one untraced server lifetime measured.
type served struct {
	closed     closedResult
	open       openResult
	heapPerKey float64
	heaps      []float64 // heap per key of every reading
	diskPerKey float64
	recover    time.Duration
	verified   int
	attempted  int64
}

// print shows the results the end-to-end metrics do not carry.
func (r served) print() {
	fmt.Printf("%-38s %16.4f %-6s bound %d ms\n", "driver.max_lag_ms", float64(r.open.maxLag)/1e6, "ms", lagBoundMS)
	fmt.Printf("%-38s %16.4f %-6s\n", "disk_bytes_per_key", r.diskPerKey, "B/key")
	fmt.Printf("%-38s %16.4f %-6s SIGKILL to listening again\n", "recover_s", r.recover.Seconds(), "s")
	fmt.Printf("%-38s %16d %-6s read back after the restart\n", "verified_keys", r.verified, "count")
}

// serve drives srv through the closed-loop and open-loop phases (dur in
// all), reads its heap and disk use, then kills it with SIGKILL and
// restarts it on the same state: a durable server recovers its
// directory, an in-memory one is handed the records again. Every
// acknowledged write is then read back (for an in-memory server, a
// sample of the bulk-loaded keys).
func serve(w *workload, d *data, srv *serverProc, dir, tmp, work string, dur time.Duration, fails *failures) (served, error) {
	var res served
	defer func() { srv.kill() }()
	sess, err := dialSession(d, srv.addr, fails)
	if err != nil {
		return res, err
	}
	closedDur := time.Duration(float64(dur) * closedShare)
	cpu := func() (int64, error) {
		pc, err := srv.counters()
		return pc.cpuTicks, err
	}
	if res.closed, err = sess.closed(closedDur, cpu); err != nil {
		return res, err
	}
	if res.open, err = sess.open(dur-closedDur, w.OpenRate); err != nil {
		return res, err
	}
	sess.close()
	if lag := float64(res.open.maxLag) / 1e6; lag > lagBoundMS {
		return res, fmt.Errorf("invalid run: open-loop generator lagged %.1f ms (bound %d ms)", lag, lagBoundMS)
	}
	var st serverStats
	for i := 0; i < heapSamples; i++ {
		if i > 0 {
			time.Sleep(heapGap)
		}
		next, err := srv.stats(true)
		if err != nil {
			return res, err
		}
		res.heaps = append(res.heaps, float64(next.HeapAlloc)/float64(next.Len))
		if i == 0 || next.HeapAlloc < st.HeapAlloc {
			st = next
		}
	}
	res.heapPerKey = float64(st.HeapAlloc) / float64(st.Len)
	res.diskPerKey = float64(dirBytes(dir)+dirBytes(tmp)) / float64(st.Len)

	srv.kill()
	recs := d.keys
	if w.Durable {
		recs = nil
	} else {
		os.RemoveAll(tmp)
		_, tmp = runDirs(w, work, "restart")
	}
	if srv, err = startServer(w, recs, dir, tmp, false); err != nil {
		return res, err
	}
	res.recover = srv.setup
	check := sess
	if !w.Durable {
		check = sampleSession(d, fails)
	}
	if res.verified, err = check.verify(srv.addr); err != nil {
		return res, err
	}
	if err := srv.quit(); err != nil {
		return res, fmt.Errorf("server shutdown: %w", err)
	}
	res.attempted = sess.attempted.Load() + int64(res.verified)
	return res, nil
}

// runDirs names a server's durable directory (durable workloads only)
// and its TMPDIR.
func runDirs(w *workload, work, tag string) (dir, tmp string) {
	if w.Durable {
		dir = filepath.Join(work, "db-"+tag)
	}
	tmp = filepath.Join(work, "tmp-"+tag)
	os.MkdirAll(tmp, 0o755)
	return dir, tmp
}

// sampleSession is a read-back check of bulk-loaded keys only.
func sampleSession(d *data, fails *failures) *session {
	s := &session{d: d, fails: fails}
	for c := range s.m {
		s.m[c] = newModel(d.keys)
	}
	for i := uint64(0); i < baseSample; i++ {
		k := d.keys[splitmix64(i^uint64(d.seed))%uint64(len(d.keys))]
		s.m[owner(k)].over[k] = entry{val: payload(k), present: true}
	}
	return s
}

func dirBytes(dir string) int64 {
	var n int64
	if dir == "" {
		return 0
	}
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printProvenance prints what the result depends on besides the code.
func printProvenance(w *workload, seed int64, seconds, trace int) {
	p := map[string]interface{}{
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": map[string]int{"client": runtime.GOMAXPROCS(0), "server": runtime.NumCPU()},
		"go":         runtime.Version(),
		"rev":        gitRev(),
		"conns":      numConns,
		"shards":     numShards,
		"window":     window,
		"workload":   w,
	}
	b, _ := json.Marshal(p)
	fmt.Printf("provenance %s\n", b)
}

// gitRev is the revision the binary was built from: the VCS stamp when
// the build had one, else the checkout's git HEAD, else "unknown".
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
