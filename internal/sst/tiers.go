package sst

import "github.com/lix-go/lix/internal/core"

// Tiers is a read view over a set of open runs ordered newest first — the
// LSM resolution rule in one place: the newest run that speaks for a key
// (live record or tombstone) wins, older runs are shadowed.
type Tiers struct {
	runs []*Reader // newest first
}

// NewTiers builds a view over runs, which must be ordered newest first.
func NewTiers(runs []*Reader) *Tiers { return &Tiers{runs: runs} }

// Get resolves k across the tiers, newest run first.
func (t *Tiers) Get(k core.Key) (core.Value, bool, error) {
	for _, r := range t.runs {
		v, st, err := r.Get(k)
		if err != nil {
			return 0, false, err
		}
		switch st {
		case Found:
			return v, true, nil
		case Deleted:
			return 0, false, nil
		}
	}
	return 0, false, nil
}

// Runs returns the underlying readers, newest first.
func (t *Tiers) Runs() []*Reader { return t.runs }

// Counters sums the lookup counters across all runs.
func (t *Tiers) Counters() Counters {
	var c Counters
	for _, r := range t.runs {
		c.add(r.Counters())
	}
	return c
}

// Merge merges runs (ordered newest first) into one logical run: for each
// key the newest entry wins. When dropDead is true tombstones are dropped
// from the output — legal only when the merge includes the store's oldest
// run, otherwise a dropped tombstone would resurrect a shadowed record
// below. The merged Seq is the maximum across inputs.
//
// Every run is already sorted, so this is a k-way merge over one cursor
// per run on a min-heap keyed by (key, age): O(n log k), no hashing, and
// the output comes out sorted.
func Merge(runs []*Reader, dropDead bool) (*FileData, error) {
	out := &FileData{}
	h := make(mergeHeap, 0, len(runs))
	liveCap, deadCap := 0, 0
	for age, r := range runs {
		d, err := r.Data()
		if err != nil {
			return nil, err
		}
		if d.Seq > out.Seq {
			out.Seq = d.Seq
		}
		liveCap += len(d.Live)
		deadCap += len(d.Dead)
		h = append(h, &mergeCursor{live: d.Live, dead: d.Dead, age: age})
	}
	out.Live = make([]core.KV, 0, liveCap)
	if !dropDead && deadCap > 0 {
		out.Dead = make([]core.Key, 0, deadCap)
	}
	h.init()
	for len(h) > 0 {
		top := h[0]
		if len(h) == 1 {
			// Nothing left to shadow or be shadowed by: copy the rest.
			out.Live = append(out.Live, top.live...)
			if !dropDead {
				out.Dead = append(out.Dead, top.dead...)
			}
			break
		}
		k, dead := top.head()
		switch {
		case !dead:
			out.Live = append(out.Live, top.live[0])
		case !dropDead:
			out.Dead = append(out.Dead, k)
		}
		// Advance the winner and every older cursor it shadows: ties sort
		// newest first, so they surface at the top one after another.
		for len(h) > 0 {
			c := h[0]
			if ck, _ := c.head(); ck != k {
				break
			}
			c.next()
			if c.done() {
				h.popTop()
			} else {
				h.down(0)
			}
		}
	}
	return out, nil
}

// mergeCursor walks one run's live records and tombstones as a single
// ascending key stream (the two lists are disjoint).
type mergeCursor struct {
	live []core.KV
	dead []core.Key
	age  int // index in the newest-first input; lower wins ties
}

func (c *mergeCursor) done() bool { return len(c.live) == 0 && len(c.dead) == 0 }

// head returns the cursor's smallest remaining key and whether it is a
// tombstone. The cursor must not be done.
func (c *mergeCursor) head() (core.Key, bool) {
	if len(c.dead) == 0 || (len(c.live) > 0 && c.live[0].Key < c.dead[0]) {
		return c.live[0].Key, false
	}
	return c.dead[0], true
}

// next drops the head.
func (c *mergeCursor) next() {
	if _, dead := c.head(); dead {
		c.dead = c.dead[1:]
	} else {
		c.live = c.live[1:]
	}
}

// mergeHeap is a binary min-heap of cursors ordered by (head key, age).
type mergeHeap []*mergeCursor

func (h mergeHeap) less(i, j int) bool {
	ki, _ := h[i].head()
	kj, _ := h[j].head()
	return ki < kj || (ki == kj && h[i].age < h[j].age)
}

// init establishes the heap order. Every cursor starts non-empty: a run
// file never decodes empty.
func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// popTop removes the minimum cursor.
func (h *mergeHeap) popTop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.down(0)
}

// down restores the heap order below i.
func (h mergeHeap) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
