package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/sst"
)

// LSM storage engine. Instead of rewriting the full record set into a
// snapshot at every checkpoint, the engine treats the in-memory index as
// the memtable and the WAL as its durable image: a checkpoint folds the
// retired WAL generations into one sorted run (O(memtable), not
// O(dataset)), appends it to the run list, and publishes the new list in
// a manifest. A size-tiered compactor merges runs of similar size so the
// list stays short and tombstones are eventually dropped.
//
// File layout next to the WAL segments:
//
//	lsm-<gen>.lix  manifest — snapshot codec, empty record section, runs
//	               section listing the live runs newest first
//	sst-<id>.lix   immutable sorted run (internal/sst format)
//
// Durability ordering is the same discipline as the snapshot engine: a
// new run file is fully durable (temp+fsync+rename) before the manifest
// that references it, the manifest is durable before any old file is
// removed, and recovery trusts only the newest decodable manifest plus
// the WAL generations at or after it. Replaying WAL records that a run
// already folded is idempotent (last-wins per key in sequence order), so
// a crash between WAL rotation and manifest publication loses nothing.
const (
	// compactMinRuns is the size-tiered window: the compactor merges the
	// first (oldest-most) window of this many consecutive runs whose sizes
	// are within compactSizeRatio of each other.
	compactMinRuns = 4
	// compactSizeRatio bounds max/min file size inside a merge window.
	compactSizeRatio = 4
	// compactMaxRuns is the fallback trigger: above this many runs the
	// oldest half is merged even if sizes are skewed.
	compactMaxRuns = 12
	// compactRoundsPerFlush bounds compaction work done in one checkpoint.
	compactRoundsPerFlush = 8
)

func manifestPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("lsm-%016x.lix", gen))
}

func runPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("sst-%016x.lix", id))
}

// nextRunID returns the smallest run ID above every run file on disk,
// referenced or orphaned — IDs are never reused, so a crash-orphaned run
// can never collide with a later flush.
func nextRunID(st dirState) uint64 {
	next := uint64(1)
	for id := range st.runs {
		if id >= next {
			next = id + 1
		}
	}
	return next
}

func runRefOf(id uint64, r *sst.Reader) RunRef {
	s := r.Stats()
	return RunRef{
		ID: id, Live: uint64(r.Live()), Dead: uint64(r.Dead()),
		Seq: r.Seq(), MinKey: s.MinKey, MaxKey: s.MaxKey,
	}
}

// createLSM makes a fresh store's seed durable under the LSM engine: the
// seed records become run 1 (when non-empty) and manifest generation 1
// publishes the run list. Called from Create with the engine already
// resolved.
func (d *Durable) createLSM(recs []core.KV) error {
	d.nextRunID = 1
	var refs []RunRef
	if len(recs) > 0 {
		id := d.nextRunID
		if err := sst.WriteFile(runPath(d.dir, id), &sst.FileData{Live: recs}); err != nil {
			return err
		}
		r, err := sst.Open(runPath(d.dir, id))
		if err != nil {
			return err
		}
		d.nextRunID++
		d.runs = []*sst.Reader{r}
		refs = []RunRef{runRefOf(id, r)}
	}
	d.runRefs = refs
	if err := WriteSnapshot(manifestPath(d.dir, 1), &SnapshotData{Meta: d.meta, LastSeq: 0, Runs: refs}); err != nil {
		return err
	}
	d.manifestGen = 1
	d.publishLSMGauges()
	return nil
}

// openLSMBase loads the newest decodable manifest and opens every run it
// references, returning the manifest (with Recs filled in as the merged
// base record set) and the open readers, newest first. Decode failures
// skip to the older manifest generation (which only exists when the newer
// one was never made durable); a decodable manifest whose runs are
// missing or corrupt is a hard error — serving without them would
// silently drop committed writes.
func openLSMBase(dir string, st dirState, info *RecoveryInfo) (*SnapshotData, []*sst.Reader, error) {
	gens := gensDesc(st.manifests)
	if len(gens) == 0 {
		if len(st.runs) > 0 {
			return nil, nil, fmt.Errorf("store: %s holds %d run files but no LSM manifest", dir, len(st.runs))
		}
		return nil, nil, nil
	}
	var man *SnapshotData
	for _, gen := range gens {
		m, err := ReadSnapshot(st.manifests[gen])
		if err != nil {
			info.CorruptSnapshots++
			continue
		}
		man, info.SnapshotGen = m, gen
		break
	}
	if man == nil {
		return nil, nil, fmt.Errorf("store: %s: no decodable LSM manifest among %d generations", dir, len(gens))
	}
	readers := make([]*sst.Reader, 0, len(man.Runs))
	fail := func(err error) (*SnapshotData, []*sst.Reader, error) {
		for _, r := range readers {
			r.Close()
		}
		return nil, nil, err
	}
	for _, ref := range man.Runs {
		r, err := sst.Open(runPath(dir, ref.ID))
		if err != nil {
			return fail(fmt.Errorf("store: manifest gen %d: run %016x: %w", info.SnapshotGen, ref.ID, err))
		}
		if r.Seq() != ref.Seq || r.Live() != int(ref.Live) || r.Dead() != int(ref.Dead) {
			r.Close()
			return fail(fmt.Errorf("store: run %016x does not match its manifest entry", ref.ID))
		}
		readers = append(readers, r)
	}
	base, err := sst.Merge(readers, true)
	if err != nil {
		return fail(err)
	}
	man.Recs = base.Live
	info.SnapshotRecs = len(base.Live)
	return man, readers, nil
}

// flushLSM is the LSM checkpoint: rotate the WAL to a fresh generation
// under the same consistent cut the snapshot engine uses, fold the
// retired generations' committed records (only those past the manifest
// watermark) into one new sorted run, publish the extended run list in a
// new manifest, retire the old files, then let the compactor run. The
// cost is proportional to the WAL delta, never to the dataset.
func (d *Durable) flushLSM() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	// Consistent cut: writers drain, fresh segments take over. lastSeq
	// covers every record in the retired generations.
	d.stateMu.Lock()
	newGen := d.gen + 1
	newWals, err := d.openGeneration(newGen)
	if err != nil {
		d.stateMu.Unlock()
		return err
	}
	lastSeq := d.seq.Load()
	oldGen, oldWals := d.gen, d.wals
	d.gen, d.wals = newGen, newWals
	d.sinceCkpt.Store(0)
	d.stateMu.Unlock()

	// The retired log must be fully durable before its records move into
	// a run; Close fsyncs.
	for _, w := range oldWals {
		if err := w.Close(); err != nil {
			d.fail(err)
			return err
		}
	}

	// Fold every retired generation — lingering generations from earlier
	// crashes included — into one last-wins delta past the manifest seq.
	st, err := scanDir(d.dir)
	if err != nil {
		d.fail(err)
		return err
	}
	var ops []Record
	for gen, segs := range st.wals {
		if gen > oldGen {
			continue
		}
		for _, path := range segs {
			recs, _, err := readSegment(path)
			if err != nil {
				d.fail(err)
				return err
			}
			ops = append(ops, recs...)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Seq < ops[j].Seq })
	type opState struct {
		val core.Value
		del bool
	}
	fold := make(map[core.Key]opState, len(ops))
	for _, op := range ops {
		if op.Seq <= d.manifestSeq {
			continue // already folded into a run
		}
		fold[op.Key] = opState{val: op.Val, del: op.Op == OpDelete}
	}

	newRuns := append([]*sst.Reader(nil), d.runs...)
	newRefs := append([]RunRef(nil), d.runRefs...)
	flushed := 0
	if len(fold) > 0 {
		fd := &sst.FileData{Seq: lastSeq}
		// A tombstone only matters if an older run could hold the key;
		// with no older runs the delete already fully happened.
		keepDead := len(d.runs) > 0
		for k, s := range fold {
			if s.del {
				if keepDead {
					fd.Dead = append(fd.Dead, k)
				}
				continue
			}
			fd.Live = append(fd.Live, core.KV{Key: k, Value: s.val})
		}
		sort.Slice(fd.Live, func(i, j int) bool { return fd.Live[i].Key < fd.Live[j].Key })
		sort.Slice(fd.Dead, func(i, j int) bool { return fd.Dead[i] < fd.Dead[j] })
		if flushed = len(fd.Live) + len(fd.Dead); flushed > 0 {
			id := d.nextRunID
			if err := sst.WriteFile(runPath(d.dir, id), fd); err != nil {
				d.fail(err)
				return err
			}
			r, err := sst.Open(runPath(d.dir, id))
			if err != nil {
				d.fail(err)
				return err
			}
			d.nextRunID++
			newRuns = append([]*sst.Reader{r}, newRuns...)
			newRefs = append([]RunRef{runRefOf(id, r)}, newRefs...)
		}
	}

	// Manifest durable → old WAL generations and orphans are garbage.
	if err := WriteSnapshot(manifestPath(d.dir, newGen), &SnapshotData{
		Meta: d.meta, LastSeq: lastSeq, Runs: newRefs,
	}); err != nil {
		d.fail(err)
		return err
	}
	d.runMu.Lock()
	d.runs, d.runRefs = newRuns, newRefs
	d.runMu.Unlock()
	d.manifestGen, d.manifestSeq = newGen, lastSeq
	d.gcLSM(newGen, oldGen)
	d.emit(obs.EvCheckpoint, flushed, fmt.Sprintf("lsm gen=%d runs=%d", newGen, len(newRefs)))
	d.publishLSMGauges()
	return d.maybeCompact()
}

// gcLSM removes files the current manifest generation has superseded:
// older manifests, WAL generations at or before oldGen, and run files the
// manifest does not reference (crash orphans).
func (d *Durable) gcLSM(keepGen, oldGen uint64) {
	st, err := scanDir(d.dir)
	if err != nil {
		return
	}
	for gen, path := range st.manifests {
		if gen < keepGen {
			os.Remove(path)
		}
	}
	for gen, segs := range st.wals {
		if gen <= oldGen {
			for _, path := range segs {
				os.Remove(path)
			}
		}
	}
	live := make(map[uint64]bool, len(d.runRefs))
	for _, ref := range d.runRefs {
		live[ref.ID] = true
	}
	for id, path := range st.runs {
		if !live[id] {
			os.Remove(path)
		}
	}
	syncDir(d.dir)
}

// pickCompaction scans merge windows of compactMinRuns consecutive runs
// from the oldest end and returns the first whose sizes are within
// compactSizeRatio (size-tiered: merging similar sizes keeps write
// amplification logarithmic). Above compactMaxRuns the oldest half is
// merged regardless. Indices are into d.runs (newest first).
func (d *Durable) pickCompaction() (lo, hi int, ok bool) {
	n := len(d.runs)
	for start := n - compactMinRuns; start >= 0; start-- {
		minB, maxB := int64(1<<62), int64(0)
		for _, r := range d.runs[start : start+compactMinRuns] {
			b := r.FileBytes()
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		if maxB <= minB*compactSizeRatio {
			return start, start + compactMinRuns, true
		}
	}
	if n > compactMaxRuns {
		return n - n/2, n, true
	}
	return 0, 0, false
}

// maybeCompact runs size-tiered compaction rounds until no window
// qualifies (bounded per flush). Caller holds ckptMu.
func (d *Durable) maybeCompact() error {
	for i := 0; i < compactRoundsPerFlush; i++ {
		lo, hi, ok := d.pickCompaction()
		if !ok {
			return nil
		}
		if err := d.compact(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// compact merges runs[lo:hi] (a window of adjacent ages) into one new
// run and republishes the manifest at the same generation — compaction
// folds no new WAL records, so the sequence watermark is unchanged and
// an atomic rename over the same manifest name is the whole commit.
// Tombstones are dropped only when the window includes the oldest run;
// anywhere else a dropped tombstone would resurrect a shadowed record.
func (d *Durable) compact(lo, hi int) error {
	window := d.runs[lo:hi]
	dropDead := hi == len(d.runs)
	fd, err := sst.Merge(window, dropDead)
	if err != nil {
		d.fail(err)
		return err
	}
	newRuns := append([]*sst.Reader(nil), d.runs[:lo]...)
	newRefs := append([]RunRef(nil), d.runRefs[:lo]...)
	merged := 0
	if len(fd.Live)+len(fd.Dead) > 0 {
		id := d.nextRunID
		if err := sst.WriteFile(runPath(d.dir, id), fd); err != nil {
			d.fail(err)
			return err
		}
		r, err := sst.Open(runPath(d.dir, id))
		if err != nil {
			d.fail(err)
			return err
		}
		d.nextRunID++
		merged = len(fd.Live) + len(fd.Dead)
		newRuns = append(newRuns, r)
		newRefs = append(newRefs, runRefOf(id, r))
	}
	newRuns = append(newRuns, d.runs[hi:]...)
	newRefs = append(newRefs, d.runRefs[hi:]...)

	if err := WriteSnapshot(manifestPath(d.dir, d.manifestGen), &SnapshotData{
		Meta: d.meta, LastSeq: d.manifestSeq, Runs: newRefs,
	}); err != nil {
		d.fail(err)
		return err
	}
	old := make([]*sst.Reader, len(window))
	copy(old, window)
	d.runMu.Lock()
	d.runs, d.runRefs = newRuns, newRefs
	d.runMu.Unlock()
	for _, r := range old {
		addCounters(&d.lsmRetired, r.Counters())
		r.Close()
		os.Remove(r.Path())
	}
	syncDir(d.dir)
	d.emit(obs.EvCompaction, merged, fmt.Sprintf("lsm merged %d runs into %d records (dropDead=%v)", len(old), merged, dropDead))
	d.publishLSMGauges()
	return nil
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

// LSMStats summarizes the LSM engine state (zero value for the snapshot
// engine).
type LSMStats struct {
	Runs        int
	RunBytes    int64
	LiveRecs    int
	Tombstones  int
	ManifestGen uint64
	ManifestSeq uint64
	Counters    sst.Counters
}

// Engine reports which storage engine the store runs on.
func (d *Durable) Engine() string {
	if d.engine == "" {
		return EngineSnapshot
	}
	return d.engine
}

// Runs returns a snapshot of the open LSM run readers, newest first. The
// readers stay valid until the next flush or compaction replaces them;
// hold ckpt-free callers should treat them as a point-in-time view.
func (d *Durable) Runs() []*sst.Reader {
	d.runMu.RLock()
	defer d.runMu.RUnlock()
	return append([]*sst.Reader(nil), d.runs...)
}

// Tiers returns a point-in-time read view over the current runs.
func (d *Durable) Tiers() *sst.Tiers { return sst.NewTiers(d.Runs()) }

// LSMStats reports the engine state.
func (d *Durable) LSMStats() LSMStats {
	d.runMu.RLock()
	runs := d.runs
	st := LSMStats{Runs: len(runs), ManifestGen: d.manifestGen, ManifestSeq: d.manifestSeq}
	for _, r := range runs {
		st.RunBytes += r.FileBytes()
		st.LiveRecs += r.Live()
		st.Tombstones += r.Dead()
	}
	st.Counters = sumCounters(runs, d.lsmRetired)
	d.runMu.RUnlock()
	return st
}

func addCounters(dst *sst.Counters, src sst.Counters) {
	dst.Probes += src.Probes
	dst.RangeSkips += src.RangeSkips
	dst.FilterSkips += src.FilterSkips
	dst.FalsePositives += src.FalsePositives
	dst.Hits += src.Hits
	dst.TombHits += src.TombHits
	dst.PageReads += src.PageReads
}

func sumCounters(runs []*sst.Reader, base sst.Counters) sst.Counters {
	c := base
	for _, r := range runs {
		addCounters(&c, r.Counters())
	}
	return c
}

// publishLSMGauges refreshes the LSM gauges and pushes filter counter
// deltas into Metrics. Called after every flush and compaction (under
// ckptMu, which makes the delta bookkeeping race-free). Run filters are
// built on a run's first probe, so FilterBytes and FilterFPRPpm cover
// built filters only; publishing never triggers a build.
func (d *Durable) publishLSMGauges() {
	m := d.cfg.Metrics
	if m == nil {
		return
	}
	d.runMu.RLock()
	runs := append([]*sst.Reader(nil), d.runs...)
	d.runMu.RUnlock()
	var bytes, tombs, bits int64
	var fprPpm int64
	fprSet := false
	for _, r := range runs {
		bytes += r.FileBytes()
		tombs += int64(r.Dead())
		bits += int64(r.FilterBits())
		if !fprSet && r.Built() {
			fprPpm, fprSet = int64(r.MeasuredFPR()*1e6), true
		}
	}
	m.LSMRuns.Set(int64(len(runs)))
	m.LSMRunBytes.Set(bytes)
	m.LSMTombs.Set(tombs)
	m.FilterBytes.Set((bits + 7) / 8)
	m.FilterFPRPpm.Set(fprPpm)
	c := sumCounters(runs, d.lsmRetired)
	m.FilterProbes.Add((c.Probes - c.RangeSkips) - (d.lsmPub.Probes - d.lsmPub.RangeSkips))
	m.FilterSkips.Add(c.FilterSkips - d.lsmPub.FilterSkips)
	m.FilterFPs.Add(c.FalsePositives - d.lsmPub.FalsePositives)
	d.lsmPub = c
}
