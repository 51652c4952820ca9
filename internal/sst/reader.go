package sst

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/lbf"
	"github.com/lix-go/lix/internal/page"
	"github.com/lix-go/lix/internal/segment"
)

const (
	// fenceEps is the PLA error budget for the fence model, in fence-array
	// slots — the same budget the paged PGM kind uses for its leaf fences.
	fenceEps = 8
	// minModelFences is the fence count below which a plain binary search
	// beats a model; small runs skip the PLA build entirely.
	minModelFences = 64
	// filterBitsPerKey sizes each run's learned filter: generous enough
	// that absent-key lookups skip the run well over 90% of the time.
	filterBitsPerKey = 16
	// minFilterBits floors tiny runs' filters.
	minFilterBits = 1024
)

// State is the outcome of a single-run point lookup.
type State uint8

const (
	// Absent: the run says nothing about the key — consult older runs.
	Absent State = iota
	// Found: the run holds a live record for the key.
	Found
	// Deleted: the run holds a tombstone — the key is dead, stop.
	Deleted
)

// Counters is a snapshot of a reader's lookup counters. Probes counts Get
// calls; every probe resolves as exactly one of RangeSkips (key outside
// [min, max], no filter consulted), FilterSkips (learned filter rejected
// it), FalsePositives (filter accepted but the run holds neither record
// nor tombstone), Hits, or TombHits.
type Counters struct {
	Probes         uint64
	RangeSkips     uint64
	FilterSkips    uint64
	FalsePositives uint64
	Hits           uint64
	TombHits       uint64
	PageReads      uint64
}

// add accumulates o into c.
func (c *Counters) add(o Counters) {
	c.Probes += o.Probes
	c.RangeSkips += o.RangeSkips
	c.FilterSkips += o.FilterSkips
	c.FalsePositives += o.FalsePositives
	c.Hits += o.Hits
	c.TombHits += o.TombHits
	c.PageReads += o.PageReads
}

// RunStats describes one open run for gauges and debugging.
type RunStats struct {
	Path       string
	Live       int
	Dead       int
	Seq        uint64
	MinKey     core.Key
	MaxKey     core.Key
	FileBytes  int64
	Fences     int
	Segments   int
	FilterBits uint64
	BackupKeys int
}

// Reader serves point lookups against one immutable run file. The data
// pages stay on disk; in memory the reader keeps the run's header facts
// from Open and, once the first in-range Get needs them, the derived
// lookup structures (see lookupIndex). Methods are safe for concurrent
// use.
type Reader struct {
	f    *os.File
	path string
	size int64

	live      int
	dead      int
	dataPages int
	seq       uint64
	minKey    core.Key
	maxKey    core.Key

	buildOnce sync.Once
	ix        atomic.Pointer[lookupIndex] // nil until built
	buildErr  error                       // set inside buildOnce when the build fails

	probes    atomic.Uint64
	rangeSkip atomic.Uint64
	filtSkip  atomic.Uint64
	falsePos  atomic.Uint64
	hits      atomic.Uint64
	tombHits  atomic.Uint64
	pageReads atomic.Uint64
}

// lookupIndex holds a run's derived lookup structures — the fence array
// (first key of each data page), a PLA model over it, the tombstone keys
// and the learned filter — rebuilt from the file the same way the paged
// PGM kind rebuilds its fence model. The store serves reads from its
// in-memory index, so most runs are only ever merged, never probed:
// building on first Get keeps filter training off seed, flush,
// compaction and recovery.
type lookupIndex struct {
	fences []core.Key        // first key of data page i
	model  []segment.Segment // PLA over fences (nil for small runs)
	tombs  []core.Key        // sorted tombstone keys
	filter *lbf.Filter       // membership over live ∪ tombstone keys
	fpr    float64           // filter FPR measured on a holdout at build
}

// pagePool recycles 4 KiB lookup buffers across Get calls.
var pagePool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// Open validates the run file at path end to end (full canonical decode —
// a torn or corrupted run is rejected here, never served) and keeps only
// its header facts; the lookup structures are built on the first Get.
func Open(path string) (*Reader, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := DecodeFile(b)
	if err != nil {
		return nil, fmt.Errorf("sst: %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Reader{
		f:         f,
		path:      path,
		size:      int64(len(b)),
		live:      len(d.Live),
		dead:      len(d.Dead),
		dataPages: pagesFor(len(d.Live)),
		seq:       d.Seq,
		minKey:    d.MinKey(),
		maxKey:    d.MaxKey(),
	}, nil
}

// index returns the run's lookup structures, building them on first use
// from a fresh, fully validated read of the file. A failed build is
// sticky: every later call returns the same error.
func (r *Reader) index() (*lookupIndex, error) {
	r.buildOnce.Do(func() {
		ix, err := r.build()
		if err != nil {
			r.buildErr = err
			return
		}
		r.ix.Store(ix)
	})
	if ix := r.ix.Load(); ix != nil {
		return ix, nil
	}
	return nil, r.buildErr
}

// build re-reads and decodes the run and derives its lookup structures.
// The re-read must describe the run Open validated; anything else means
// the file changed underneath the reader.
func (r *Reader) build() (*lookupIndex, error) {
	d, err := r.Data()
	if err != nil {
		return nil, fmt.Errorf("sst: build lookup index: %w", err)
	}
	if len(d.Live) != r.live || len(d.Dead) != r.dead || d.Seq != r.seq ||
		d.MinKey() != r.minKey || d.MaxKey() != r.maxKey {
		return nil, fmt.Errorf("sst: %s: run changed since open", r.path)
	}
	ix := &lookupIndex{tombs: d.Dead}
	if r.dataPages > 0 {
		ix.fences = make([]core.Key, r.dataPages)
		for i := range ix.fences {
			ix.fences[i] = d.Live[i*RecsPerPage].Key
		}
	}
	if len(ix.fences) >= minModelFences {
		xs := make([]float64, len(ix.fences))
		for i, k := range ix.fences {
			xs[i] = float64(k)
		}
		ix.model = segment.BuildOptimal(xs, segment.Positions(len(xs)), fenceEps)
	}
	// Learned filter over every key the run speaks for — live and dead.
	// Zero false negatives is load-bearing twice over: a missed live key
	// would lose a committed write, a missed tombstone would resurrect a
	// deleted one from an older run.
	members := memberKeys(d)
	negs := synthNegatives(members, r.minKey, r.maxKey, d.Seq^r.minKey)
	bits := uint64(len(members)) * filterBitsPerKey
	if bits < minFilterBits {
		bits = minFilterBits
	}
	filter, err := lbf.Train(members, negs, bits, 0)
	if err != nil {
		return nil, fmt.Errorf("sst: %s: train filter: %w", r.path, err)
	}
	ix.filter = filter
	// Measure the realized FPR on a holdout batch of absent keys the
	// filter was not trained on; exported on /metrics per run.
	if holdout := synthNegatives(members, r.minKey, r.maxKey, d.Seq^r.maxKey^0x5bf0a8b1); len(holdout) > 0 {
		ix.fpr = lbf.MeasureFPR(filter, holdout)
	}
	return ix, nil
}

// memberKeys returns the sorted union of live and tombstone keys.
func memberKeys(d *FileData) []core.Key {
	out := make([]core.Key, 0, len(d.Live)+len(d.Dead))
	i, j := 0, 0
	for i < len(d.Live) && j < len(d.Dead) {
		if d.Live[i].Key < d.Dead[j] {
			out = append(out, d.Live[i].Key)
			i++
		} else {
			out = append(out, d.Dead[j])
			j++
		}
	}
	for ; i < len(d.Live); i++ {
		out = append(out, d.Live[i].Key)
	}
	out = append(out, d.Dead[j:]...)
	return out
}

// synthNegatives generates the learned filter's negative training sample:
// deterministic pseudo-random non-member keys, drawn from the run's own
// key range so the classifier learns the in-range boundary it will
// actually be probed on, widened to the full key space if the range is
// too dense to yield enough.
func synthNegatives(members []core.Key, lo, hi core.Key, seed uint64) []core.Key {
	want := len(members)
	if want < 512 {
		want = 512
	}
	if want > 8192 {
		want = 8192
	}
	isMember := func(k core.Key) bool {
		i := core.LowerBound(members, k)
		return i < len(members) && members[i] == k
	}
	negs := make([]core.Key, 0, want)
	x := seed
	span := hi - lo
	for tries := 0; len(negs) < want && tries < want*16; tries++ {
		r := splitmix64(&x)
		var k core.Key
		if span == ^core.Key(0) || span == 0 {
			k = r
		} else {
			k = lo + r%(span+1)
		}
		if !isMember(k) {
			negs = append(negs, k)
		}
	}
	// Dense range fallback: draw from the whole key space.
	for tries := 0; len(negs) < want && tries < want*16; tries++ {
		if k := splitmix64(&x); !isMember(k) {
			negs = append(negs, k)
		}
	}
	return negs
}

// splitmix64 advances x and returns the next value of the splitmix64
// sequence.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Get resolves k against this run alone: Found with the value, Deleted
// when the run tombstones k, Absent when the run says nothing (the caller
// consults older runs). At most one page read per call; absent keys are
// usually rejected by the range check or the learned filter without
// touching disk. The first in-range call builds the lookup structures; if
// that build fails (the file was damaged after Open) the error comes back
// here, never a guessed answer.
func (r *Reader) Get(k core.Key) (core.Value, State, error) {
	r.probes.Add(1)
	if k < r.minKey || k > r.maxKey {
		r.rangeSkip.Add(1)
		return 0, Absent, nil
	}
	ix, err := r.index()
	if err != nil {
		return 0, Absent, err
	}
	if !ix.filter.Contains(k) {
		r.filtSkip.Add(1)
		return 0, Absent, nil
	}
	if i := core.LowerBound(ix.tombs, k); i < len(ix.tombs) && ix.tombs[i] == k {
		r.tombHits.Add(1)
		return 0, Deleted, nil
	}
	if r.live == 0 {
		r.falsePos.Add(1)
		return 0, Absent, nil
	}
	pg := ix.pageFor(k)
	bp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bp)
	p := page.Buf(*bp)
	if err := r.readPage(uint64(1+pg), p); err != nil {
		return 0, Absent, err
	}
	if i, ok := p.LeafSearch(k); ok {
		v := p.LeafVal(i)
		r.hits.Add(1)
		return v, Found, nil
	}
	r.falsePos.Add(1)
	return 0, Absent, nil
}

// pageFor returns the data-page index whose key range covers k: the last
// fence ≤ k. The PLA model predicts a slot and a windowed search corrects
// it; the result is verified against the full fence array (the model is
// an accelerator, never an authority) with a binary-search fallback.
func (ix *lookupIndex) pageFor(k core.Key) int {
	var i int
	if ix.model != nil {
		s := &ix.model[segment.Locate(ix.model, float64(k))]
		p := int(s.Predict(float64(k)))
		i = core.SearchRange(ix.fences, k, p-fenceEps-1, p+fenceEps+2)
		if !((i == 0 || ix.fences[i-1] < k) && (i == len(ix.fences) || ix.fences[i] >= k)) {
			i = core.LowerBound(ix.fences, k)
		}
	} else {
		i = core.LowerBound(ix.fences, k)
	}
	if i < len(ix.fences) && ix.fences[i] == k {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// readPage fills p with page id's content, verifying CRC and self-id —
// the last line of defense against corruption that appears after Open.
func (r *Reader) readPage(id uint64, p page.Buf) error {
	n, err := r.f.ReadAt(p, int64(id)*PageSize)
	if n != PageSize {
		return fmt.Errorf("sst: %s: short read of page %d (%d bytes): %v", r.path, id, n, err)
	}
	r.pageReads.Add(1)
	if !p.VerifyCRC() {
		return fmt.Errorf("sst: %s: page %d CRC mismatch (torn or corrupted write)", r.path, id)
	}
	if p.ID() != id {
		return fmt.Errorf("sst: %s: page %d stores id %d (misdirected write)", r.path, id, p.ID())
	}
	return nil
}

// Data re-reads and decodes the whole run — the bulk path for compaction
// merges and recovery.
func (r *Reader) Data() (*FileData, error) {
	b, err := os.ReadFile(r.path)
	if err != nil {
		return nil, err
	}
	d, err := DecodeFile(b)
	if err != nil {
		return nil, fmt.Errorf("sst: %s: %w", r.path, err)
	}
	return d, nil
}

// Counters returns a snapshot of the lookup counters.
func (r *Reader) Counters() Counters {
	return Counters{
		Probes:         r.probes.Load(),
		RangeSkips:     r.rangeSkip.Load(),
		FilterSkips:    r.filtSkip.Load(),
		FalsePositives: r.falsePos.Load(),
		Hits:           r.hits.Load(),
		TombHits:       r.tombHits.Load(),
		PageReads:      r.pageReads.Load(),
	}
}

// Stats describes the open run. It never builds the lookup structures:
// before the first in-range Get, Segments, FilterBits and BackupKeys
// read zero.
func (r *Reader) Stats() RunStats {
	st := RunStats{
		Path:      r.path,
		Live:      r.live,
		Dead:      r.dead,
		Seq:       r.seq,
		MinKey:    r.minKey,
		MaxKey:    r.maxKey,
		FileBytes: r.size,
		Fences:    r.dataPages,
	}
	if ix := r.ix.Load(); ix != nil {
		st.Segments = len(ix.model)
		st.FilterBits = ix.filter.Bits()
		st.BackupKeys = ix.filter.BackupKeys()
	}
	return st
}

// Built reports whether the lookup structures have been built.
func (r *Reader) Built() bool { return r.ix.Load() != nil }

// Path returns the run file's path.
func (r *Reader) Path() string { return r.path }

// Seq returns the run's sequence watermark.
func (r *Reader) Seq() uint64 { return r.seq }

// Live returns the number of live records.
func (r *Reader) Live() int { return r.live }

// Dead returns the number of tombstones.
func (r *Reader) Dead() int { return r.dead }

// FileBytes returns the run file's size.
func (r *Reader) FileBytes() int64 { return r.size }

// FilterBits returns the learned filter's size in bits (model + backup),
// or 0 while the filter is unbuilt.
func (r *Reader) FilterBits() uint64 {
	if ix := r.ix.Load(); ix != nil {
		return ix.filter.Bits()
	}
	return 0
}

// MeasuredFPR is the filter's false-positive rate measured at build time
// on a holdout batch of synthesized absent keys, or 0 while the filter is
// unbuilt.
func (r *Reader) MeasuredFPR() float64 {
	if ix := r.ix.Load(); ix != nil {
		return ix.fpr
	}
	return 0
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }
