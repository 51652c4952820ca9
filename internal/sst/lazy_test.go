package sst

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// openRun writes d to a fresh run file and opens it.
func openRun(t *testing.T, d *FileData) (*Reader, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.lix")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, path
}

// TestLSMReaderBuildsOnFirstGet: Open and the introspection accessors
// leave the lookup structures unbuilt, as does a probe the key range
// rejects; the first in-range Get builds them.
func TestLSMReaderBuildsOnFirstGet(t *testing.T) {
	d := genRun(t, 5000, 300, 61)
	r, _ := openRun(t, d)

	st := r.Stats()
	if st.Live != len(d.Live) || st.Dead != len(d.Dead) || st.Fences != pagesFor(len(d.Live)) ||
		st.MinKey != d.MinKey() || st.MaxKey != d.MaxKey() {
		t.Fatalf("Stats = %+v disagrees with the run", st)
	}
	if st.FilterBits != 0 || st.Segments != 0 || r.FilterBits() != 0 || r.MeasuredFPR() != 0 {
		t.Fatalf("unbuilt reader reports derived structures: %+v", st)
	}
	if _, s, err := r.Get(d.MaxKey() + 1); err != nil || s != Absent {
		t.Fatalf("out-of-range Get = (%v, %v)", s, err)
	}
	if r.Built() {
		t.Fatal("introspection or a range-skipped probe built the lookup structures")
	}

	if v, s, err := r.Get(d.Live[0].Key); err != nil || s != Found || v != d.Live[0].Value {
		t.Fatalf("first Get = (%d, %v, %v), want (%d, Found)", v, s, err, d.Live[0].Value)
	}
	if !r.Built() {
		t.Fatal("in-range Get did not build the lookup structures")
	}
	if st := r.Stats(); st.FilterBits == 0 || st.FilterBits != r.FilterBits() {
		t.Fatalf("built reader Stats = %+v, FilterBits = %d", st, r.FilterBits())
	}
}

// TestLSMReaderConcurrentFirstGet: many goroutines racing on a fresh
// reader's first Get all see one build and correct answers.
func TestLSMReaderConcurrentFirstGet(t *testing.T) {
	d := genRun(t, 8000, 400, 62)
	r, _ := openRun(t, d)

	const workers = 8
	start := make(chan struct{})
	got := make([]*lookupIndex, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < len(d.Live); i += 97 {
				kv := d.Live[i]
				if v, s, err := r.Get(kv.Key); err != nil || s != Found || v != kv.Value {
					t.Errorf("worker %d: Get(%d) = (%d, %v, %v), want %d", w, kv.Key, v, s, err, kv.Value)
					return
				}
			}
			for i := w; i < len(d.Dead); i += 13 {
				if _, s, err := r.Get(d.Dead[i]); err != nil || s != Deleted {
					t.Errorf("worker %d: Get(tombstone %d) = (%v, %v)", w, d.Dead[i], s, err)
					return
				}
			}
			ix, err := r.index()
			if err != nil {
				t.Errorf("worker %d: index: %v", w, err)
			}
			got[w] = ix
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("workers 0 and %d saw different lookup indexes: built more than once", w)
		}
	}
}

// TestLSMReaderDamagedAfterOpen: a run that validated at Open but is
// damaged or replaced before the first Get turns that Get — and every
// later one — into an error, never an answer.
func TestLSMReaderDamagedAfterOpen(t *testing.T) {
	d := genRun(t, 3000, 100, 63)
	cases := []struct {
		name   string
		damage func(t *testing.T, path string, b []byte)
	}{
		{"bit flip in a data page", func(t *testing.T, path string, b []byte) {
			b[PageSize+100] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, path string, b []byte) {
			if err := os.WriteFile(path, b[:len(b)-PageSize/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"replaced by another valid run", func(t *testing.T, path string, _ []byte) {
			if err := WriteFile(path, genRun(t, 3000, 100, 64)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, path := openRun(t, d)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, path, b)
			for i := 0; i < 2; i++ {
				if v, s, err := r.Get(d.Live[len(d.Live)/2].Key); err == nil {
					t.Fatalf("Get %d on a damaged run = (%d, %v), want an error", i, v, s)
				}
			}
			if r.Built() {
				t.Fatal("a failed build published lookup structures")
			}
		})
	}
}

// mergeOracle is the reference Merge: apply runs oldest to newest into a
// map, then sort.
func mergeOracle(runs []*FileData, dropDead bool) *FileData {
	type entry struct {
		val  core.Value
		dead bool
	}
	m := map[core.Key]entry{}
	out := &FileData{}
	for i := len(runs) - 1; i >= 0; i-- {
		if runs[i].Seq > out.Seq {
			out.Seq = runs[i].Seq
		}
		for _, kv := range runs[i].Live {
			m[kv.Key] = entry{val: kv.Value}
		}
		for _, k := range runs[i].Dead {
			m[k] = entry{dead: true}
		}
	}
	for k, e := range m {
		switch {
		case !e.dead:
			out.Live = append(out.Live, core.KV{Key: k, Value: e.val})
		case !dropDead:
			out.Dead = append(out.Dead, k)
		}
	}
	sort.Slice(out.Live, func(i, j int) bool { return out.Live[i].Key < out.Live[j].Key })
	sort.Slice(out.Dead, func(i, j int) bool { return out.Dead[i] < out.Dead[j] })
	return out
}

// TestLSMMergeDifferential checks the k-way Merge against the map oracle
// on random run sets with heavily overlapping keys and tombstones, with
// and without dropping tombstones.
func TestLSMMergeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	dir := t.TempDir()
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(6)
		keySpace := 50 + rng.Intn(3*RecsPerPage)
		datas := make([]*FileData, k)
		readers := make([]*Reader, k)
		for i := range datas {
			fd := &FileData{Seq: uint64(rng.Intn(1000))}
			deadFrac := rng.Intn(4) // 0: live only, up to 3/4 tombstones
			for key := 0; key < keySpace; key++ {
				if rng.Intn(3) != 0 {
					continue
				}
				if rng.Intn(4) < deadFrac {
					fd.Dead = append(fd.Dead, core.Key(key))
				} else {
					fd.Live = append(fd.Live, core.KV{Key: core.Key(key), Value: rng.Uint64()})
				}
			}
			if len(fd.Live)+len(fd.Dead) == 0 {
				fd.Live = []core.KV{{Key: core.Key(keySpace), Value: 1}}
			}
			path := filepath.Join(dir, fmt.Sprintf("run-%d.lix", i))
			if err := WriteFile(path, fd); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			datas[i], readers[i] = fd, r
		}
		for _, dropDead := range []bool{false, true} {
			got, err := Merge(readers, dropDead)
			if err != nil {
				t.Fatal(err)
			}
			want := mergeOracle(datas, dropDead)
			if got.Seq != want.Seq || len(got.Live) != len(want.Live) || len(got.Dead) != len(want.Dead) {
				t.Fatalf("trial %d (k=%d dropDead=%v): got seq %d, %d live, %d dead; want seq %d, %d live, %d dead",
					trial, k, dropDead, got.Seq, len(got.Live), len(got.Dead), want.Seq, len(want.Live), len(want.Dead))
			}
			for i := range want.Live {
				if got.Live[i] != want.Live[i] {
					t.Fatalf("trial %d dropDead=%v: live[%d] = %+v, want %+v", trial, dropDead, i, got.Live[i], want.Live[i])
				}
			}
			for i := range want.Dead {
				if got.Dead[i] != want.Dead[i] {
					t.Fatalf("trial %d dropDead=%v: dead[%d] = %d, want %d", trial, dropDead, i, got.Dead[i], want.Dead[i])
				}
			}
		}
		for _, r := range readers {
			r.Close()
		}
	}
}
