package store

import (
	"math/rand"
	"os"
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/sst"
)

// seedOrphan writes a small valid run file at path, as a crash between a
// flush's run write and its manifest publication would leave behind.
func seedOrphan(t *testing.T, path string) {
	t.Helper()
	if err := sst.WriteFile(path, &sst.FileData{Live: []core.KV{{Key: 1, Value: 1}}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
}

func lsmCfg() Config {
	return Config{Fsync: SyncNever, CheckpointEvery: -1, Engine: EngineLSM}
}

func TestLSMFlushReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Engine() != EngineLSM {
		t.Fatalf("engine = %q, want lsm", d.Engine())
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := d.Put(core.Key(i*2), core.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := d.Del(core.Key(i * 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The flush retired the old WAL generation: checkpointing IS the WAL
	// truncation point.
	st, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for gen := range st.wals {
		if gen <= 1 {
			t.Fatalf("WAL generation %d survived the flush", gen)
		}
	}
	if len(st.manifests) != 1 {
		t.Fatalf("manifests on disk: %d, want 1", len(st.manifests))
	}
	ls := d.LSMStats()
	if ls.Runs != 1 || ls.LiveRecs != n-50 {
		t.Fatalf("LSMStats = %+v, want 1 run with %d live records", ls, n-50)
	}
	d.Close()

	// Reopen without Engine in the config: the directory's files win.
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Engine() != EngineLSM {
		t.Fatalf("reopened engine = %q, want lsm", d2.Engine())
	}
	if ri := d2.RecoveryInfo(); ri.Runs != 1 || ri.SnapshotRecs != n-50 {
		t.Fatalf("RecoveryInfo = %+v, want 1 run / %d base records", ri, n-50)
	}
	if d2.Len() != n-50 {
		t.Fatalf("recovered %d records, want %d", d2.Len(), n-50)
	}
	for i := 0; i < n; i++ {
		k := core.Key(i * 2)
		v, ok := d2.Get(k)
		if k%4 == 0 && k < 200 {
			if ok {
				t.Fatalf("deleted key %d resurrected with %d", k, v)
			}
		} else if !ok || v != core.Value(i) {
			t.Fatalf("key %d: got (%d,%v), want %d", k, v, ok, i)
		}
	}
}

// TestLSMFlushIsIncremental pins the tentpole property: a checkpoint
// writes only the WAL delta since the previous one, not the dataset.
func TestLSMFlushIsIncremental(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const base = 20000
	for i := 0; i < base; i++ {
		d.Put(core.Key(i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const delta = 10
	for i := 0; i < delta; i++ {
		d.Put(core.Key(base+i), core.Value(i))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runs := d.Runs()
	if len(runs) != 2 {
		t.Fatalf("run count = %d, want 2", len(runs))
	}
	if got := runs[0].Live() + runs[0].Dead(); got != delta {
		t.Fatalf("second flush wrote %d records, want the %d-record delta", got, delta)
	}
	if runs[1].Live() != base {
		t.Fatalf("base run holds %d records, want %d", runs[1].Live(), base)
	}
	// An empty delta must not mint a new run.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Runs()); got != 2 {
		t.Fatalf("empty flush changed run count to %d", got)
	}
}

func TestLSMCompactionBoundsRuns(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics("t")
	cfg := lsmCfg()
	cfg.Metrics = m
	d, err := Open(dir, cfg, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	rng := rand.New(rand.NewSource(11))
	expect := map[core.Key]core.Value{}
	const batches, perBatch = 12, 300
	for b := 0; b < batches; b++ {
		for i := 0; i < perBatch; i++ {
			k := core.Key(rng.Intn(5000) * 2)
			if rng.Intn(5) == 0 {
				d.Del(k)
				delete(expect, k)
			} else {
				v := core.Value(rng.Uint64())
				d.Put(k, v)
				expect[k] = v
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	ls := d.LSMStats()
	if ls.Runs > compactMinRuns {
		t.Fatalf("compaction let the run list grow to %d (> %d)", ls.Runs, compactMinRuns)
	}
	if m.Events.Count(obs.EvCompaction) == 0 {
		t.Fatal("no EvCompaction events emitted across 12 flushes")
	}
	if m.LSMRuns.Load() != int64(ls.Runs) {
		t.Fatalf("lsm_runs gauge = %d, runs = %d", m.LSMRuns.Load(), ls.Runs)
	}
	if m.LSMRunBytes.Load() != ls.RunBytes || ls.RunBytes == 0 {
		t.Fatalf("lsm_run_bytes gauge = %d, want %d (nonzero)", m.LSMRunBytes.Load(), ls.RunBytes)
	}
	// Flushes and compactions never probe a run, so no filter is built
	// yet and the filter-memory gauge covers none.
	if got := m.FilterBytes.Load(); got != 0 {
		t.Fatalf("lbf_filter_bytes = %d before any run probe, want 0", got)
	}
	// Probing through the run set builds the filters; the next publish
	// (an empty flush) reports their memory.
	tiers := d.Tiers()
	for k, v := range expect {
		if got, ok, err := tiers.Get(k); err != nil || !ok || got != v {
			t.Fatalf("tiers.Get(%d) = (%d, %v, %v), want %d", k, got, ok, err, v)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.FilterBytes.Load() == 0 {
		t.Fatal("lbf_filter_bytes gauge not published after the runs were probed")
	}

	// In-memory state matches the model, and so does a cold reopen.
	if d.Len() != len(expect) {
		t.Fatalf("Len = %d, model has %d", d.Len(), len(expect))
	}
	d.Close()
	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != len(expect) {
		t.Fatalf("reopened Len = %d, model has %d", d2.Len(), len(expect))
	}
	for k, v := range expect {
		if got, ok := d2.Get(k); !ok || got != v {
			t.Fatalf("key %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
}

// TestLSMFilterSkips pins the acceptance criterion: on point lookups of
// absent keys, the per-run learned filters skip at least 90% of the run
// probes that reach them.
func TestLSMFilterSkips(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(21))
	for b := 0; b < 3; b++ {
		for i := 0; i < 4000; i++ {
			d.Put(core.Key(rng.Uint64())&^1, core.Value(i)) // even keys only
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tiers := d.Tiers()
	if len(tiers.Runs()) < 2 {
		t.Fatalf("want >= 2 runs, have %d", len(tiers.Runs()))
	}
	for i := 0; i < 20000; i++ {
		k := core.Key(rng.Uint64()) | 1 // odd = absent everywhere
		if _, ok, err := tiers.Get(k); err != nil {
			t.Fatal(err)
		} else if ok {
			t.Fatalf("absent key %d found", k)
		}
	}
	c := d.LSMStats().Counters
	consulted := c.Probes - c.RangeSkips
	if consulted == 0 {
		t.Fatal("no probes consulted a filter")
	}
	if rate := float64(c.FilterSkips) / float64(consulted); rate < 0.9 {
		t.Fatalf("filters skipped %.1f%% of absent-key run probes, want >= 90%% (%+v)", 100*rate, c)
	}
}

// TestLSMCrashSweep is the crash-injection suite for the LSM engine:
// torn WAL tails recover the committed prefix over the run base, damaged
// run or manifest files turn into reopen errors (committed answer or
// error — never a silently wrong answer), and crash debris from an
// interrupted flush (rotated WAL, orphaned run, stale temp manifest) is
// recovered around and garbage-collected.
func TestLSMCrashSweep(t *testing.T) {
	const base, extra = 300, 120
	// build populates dir with a flushed base of even keys 0..2(base-1)
	// and extra unflushed WAL inserts of keys base*2..(base+extra-1)*2.
	build := func(t *testing.T, dir string) {
		d, err := Open(dir, lsmCfg(), memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < base; i++ {
			d.Put(core.Key(i*2), core.Value(i+1))
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := base; i < base+extra; i++ {
			d.Put(core.Key(i*2), core.Value(i+1))
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("torn WAL tail recovers committed prefix", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 10; trial++ {
			dir := t.TempDir()
			build(t, dir)
			path := walPath(dir, 2, 0) // generation after the flush
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(data) + 1)
			os.WriteFile(path, data[:cut], 0o644)
			want := base + committedAt(cut)

			d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
			if err != nil {
				t.Fatalf("trial %d cut %d: recovery aborted: %v", trial, cut, err)
			}
			if d.Len() != want {
				t.Fatalf("trial %d cut %d: recovered %d, want %d", trial, cut, d.Len(), want)
			}
			for i := 0; i < want; i++ {
				if v, ok := d.Get(core.Key(i * 2)); !ok || v != core.Value(i+1) {
					t.Fatalf("trial %d: committed key %d lost (%d,%v)", trial, i*2, v, ok)
				}
			}
			d.Close()
		}
	})

	t.Run("bit flip in a run file is a reopen error", func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 8; trial++ {
			dir := t.TempDir()
			build(t, dir)
			st, _ := scanDir(dir)
			for _, path := range st.runs {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
				os.WriteFile(path, data, 0o644)
			}
			if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
				d.Close()
				t.Fatalf("trial %d: reopen served a store with a corrupt run", trial)
			}
		}
	})

	t.Run("bit flip in the manifest is a reopen error", func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		for trial := 0; trial < 8; trial++ {
			dir := t.TempDir()
			build(t, dir)
			st, _ := scanDir(dir)
			for _, path := range st.manifests {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
				os.WriteFile(path, data, 0o644)
			}
			if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
				d.Close()
				t.Fatalf("trial %d: reopen served a store with a corrupt manifest", trial)
			}
		}
	})

	t.Run("truncated run file is a reopen error", func(t *testing.T) {
		dir := t.TempDir()
		build(t, dir)
		st, _ := scanDir(dir)
		for _, path := range st.runs {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)-100], 0o644)
		}
		if d, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1)); err == nil {
			d.Close()
			t.Fatal("reopen served a store with a truncated run")
		}
	})

	t.Run("interrupted flush debris is recovered around", func(t *testing.T) {
		dir := t.TempDir()
		build(t, dir)
		// Simulate a crash mid-flush: the WAL rotated to generation 3 and
		// the delta run hit disk, but the manifest was never published. A
		// stale manifest temp file lingers too.
		if err := os.WriteFile(walPath(dir, 3, 0), walHeader(3, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		// An orphaned run under an unreferenced ID and a stale manifest
		// temp file linger from the interrupted flush.
		if err := WriteSnapshot(manifestPath(dir, 99)+".tmp-123", &SnapshotData{}); err != nil {
			t.Fatal(err)
		}
		orphanRun := runPath(dir, 77)
		seedOrphan(t, orphanRun)

		d0, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		want := base + extra
		if d0.Len() != want {
			t.Fatalf("recovered %d records, want %d", d0.Len(), want)
		}
		// The next flush folds the lingering generations and clears debris:
		// one manifest on disk, the orphan run gone, IDs not reused.
		if err := d0.Put(core.Key(999999), 1); err != nil {
			t.Fatal(err)
		}
		if err := d0.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, _ := scanDir(dir)
		if len(st.manifests) != 1 {
			t.Fatalf("%d manifests after flush, want 1", len(st.manifests))
		}
		if _, err := os.Stat(orphanRun); !os.IsNotExist(err) {
			t.Fatal("orphaned run survived the flush GC")
		}
		for id := range st.runs {
			if id <= 77 && id != 1 {
				t.Fatalf("run ID %d at or below the orphan's was reused", id)
			}
		}
		d0.Close()
		d1, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		defer d1.Close()
		if d1.Len() != want+1 {
			t.Fatalf("final reopen: %d records, want %d", d1.Len(), want+1)
		}
	})
}

// TestLSMTombstoneShadowsAcrossReopen: a delete flushed as a tombstone
// must keep shadowing the older run's record across reopens and full
// compactions.
func TestLSMTombstoneShadowsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, lsmCfg(), memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		d.Put(core.Key(i), core.Value(i+1))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Del(7)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ls := d.LSMStats()
	if ls.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", ls.Tombstones)
	}
	d.Close()

	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get(7); ok {
		t.Fatal("tombstoned key resurrected on reopen")
	}
	if d2.Len() != 99 {
		t.Fatalf("Len = %d, want 99", d2.Len())
	}
}

// TestLSMFiltersBuiltOnlyByProbes: seeding, flushing, compacting and
// recovering never build a run's filter — the store serves reads from
// its in-memory index — while a probe through Tiers builds the filters
// of exactly the runs it consults.
func TestLSMFiltersBuiltOnlyByProbes(t *testing.T) {
	unbuilt := func(t *testing.T, when string, runs []*sst.Reader) {
		t.Helper()
		if len(runs) == 0 {
			t.Fatalf("%s: no runs", when)
		}
		for _, r := range runs {
			if r.Built() {
				t.Fatalf("%s: run %s has a built filter", when, r.Path())
			}
		}
	}
	dir := t.TempDir()
	seed := make([]core.KV, 5000)
	for i := range seed {
		seed[i] = core.KV{Key: core.Key(i * 2), Value: core.Value(i)}
	}
	d, err := Create(dir, lsmCfg(), memBuild(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	unbuilt(t, "after Create", d.Runs())
	for b := 0; b < 2*compactMinRuns; b++ {
		for i := 0; i < 200; i++ {
			d.Put(core.Key(b*1000+i*2+1), core.Value(i))
		}
		d.Del(core.Key(b * 4))
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt(t, "after flushes and compactions", d.Runs())
	want := d.Len()
	d.Close()

	d2, err := Open(dir, Config{Fsync: SyncNever, CheckpointEvery: -1}, memBuild(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != want {
		t.Fatalf("recovered %d records, want %d", d2.Len(), want)
	}
	runs := d2.Runs()
	unbuilt(t, "after recovery", runs)

	// Seed key 2 is in no newer run, so its probe reaches the oldest run.
	if _, ok, err := d2.Tiers().Get(2); err != nil || !ok {
		t.Fatalf("Tiers().Get(2) = (%v, %v), want present", ok, err)
	}
	if !runs[len(runs)-1].Built() {
		t.Fatal("probe through Tiers did not build the oldest run's filter")
	}
}
