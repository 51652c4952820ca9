package main

import (
	"fmt"
	"sort"

	"github.com/lix-go/lix/internal/dataset"
)

// This file turns a workload and a seed into deterministic per-connection
// op streams, and keeps the model each connection checks its replies
// against.

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opScan
)

func (k opKind) String() string {
	return [...]string{"GET", "SET", "DEL", "SCAN"}[k]
}

// family is the latency family an op reports into.
func (k opKind) family() int {
	switch k {
	case opGet:
		return famGet
	case opScan:
		return famScan
	}
	return famWrite
}

const (
	famGet = iota
	famWrite
	famScan
	numFams
)

var famNames = [numFams]string{"get", "write", "scan"}

type op struct {
	kind    opKind
	key, hi uint64 // hi bounds a SCAN
	val     uint64 // SET payload
	// fresh marks a key that is not among the bulk-loaded ones; every
	// other key an op names is.
	fresh bool
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// owner is the connection allowed to write key k. Each connection reads
// and writes only its own keys, so every GET, DEL and own-key SCAN
// record is predictable from that connection's model alone.
func owner(k uint64) int { return int(splitmix64(k) % numConns) }

// SET payloads carry a tag naming the write that produced them: the value
// is dataset.PayloadFor(k) xor (tag * tagMul) with tag = op index<<1 |
// connection, plus one. tagMul is odd, so the tag decodes exactly and a
// value that no SET wrote is detected.
const tagMul = 0x9E3779B97F4A7C15

var tagMulInv = func() uint64 {
	inv := uint64(tagMul) // Newton iteration for the inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - tagMul*inv
	}
	return inv
}()

// payload is the bulk-loaded value of key k.
func payload(k uint64) uint64 { return dataset.PayloadFor(k) }

func tagValue(k uint64, conn int, idx uint64) uint64 {
	t := (idx<<1 | uint64(conn)) + 1
	return payload(k) ^ t*tagMul
}

// decodeTag reports which write produced value v for key k: original is
// true for the bulk-loaded payload, else conn and idx name the SET.
func decodeTag(k, v uint64) (conn int, idx uint64, original bool) {
	t := (v ^ payload(k)) * tagMulInv
	if t == 0 {
		return 0, 0, true
	}
	t--
	return int(t & 1), t >> 1, false
}

// poolSize is the number of draws each key pool is built from; ops index
// the pools with a counter-based hash, so any op of any connection can be
// regenerated from its index alone.
const poolSize = 1 << 18

// data is one run's generated input: the sorted initial keys and one op
// stream per connection.
type data struct {
	w       *workload
	seed    int64
	keys    []uint64
	streams [numConns]*stream
}

type stream struct {
	w     *workload
	conn  int
	base  uint64
	gets  []uint64
	sets  []uint64
	fresh []uint64
	dels  []uint64
	scans []dataset.RangeQuery
}

func newData(w *workload, seed int64) (*data, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	ks, err := dataset.Keys(w.Dist, w.Records, seed)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(ks))
	for i, k := range ks {
		keys[i] = uint64(k)
	}
	d := &data{w: w, seed: seed, keys: keys}

	var gets, sets, fresh, dels []uint64
	if w.ZipfGets {
		gets = u64s(dataset.ZipfKeys(ks, poolSize, seed+1))
	} else {
		gets = u64s(dataset.LookupMix(ks, poolSize, 1, seed+1))
	}
	sets = u64s(dataset.LookupMix(ks, poolSize, 1, seed+2))
	if w.FreshSetFrac > 0 {
		// LookupMix falls back to an existing key where two are adjacent;
		// those are not fresh.
		for _, k := range dataset.LookupMix(ks, poolSize, 0, seed+3) {
			if !inSorted(keys, k) {
				fresh = append(fresh, k)
			}
		}
	}
	if w.DelFrac > 0 {
		dels = u64s(dataset.LookupMix(ks, poolSize, 1, seed+4))
	}
	var scans []dataset.RangeQuery
	if w.ScanFrac > 0 {
		scans = dataset.Ranges(ks, poolSize/4, float64(w.ScanLen)/float64(len(ks)), seed+5)
	}
	for c := range d.streams {
		d.streams[c] = &stream{
			w:     w,
			conn:  c,
			base:  splitmix64(uint64(seed)*numConns + uint64(c)),
			gets:  owned(gets, c),
			sets:  owned(sets, c),
			fresh: owned(fresh, c),
			dels:  owned(dels, c),
			scans: scans,
		}
	}
	return d, nil
}

func u64s[T ~uint64](ks []T) []uint64 {
	out := make([]uint64, len(ks))
	for i, k := range ks {
		out[i] = uint64(k)
	}
	return out
}

func owned(pool []uint64, conn int) []uint64 {
	var out []uint64
	for _, k := range pool {
		if owner(k) == conn {
			out = append(out, k)
		}
	}
	return out
}

// op returns the stream's op with index i. It depends only on the seed,
// the connection and i.
func (s *stream) op(i uint64) op {
	h := splitmix64(s.base + i*0xD1B54A32D192ED03)
	h2 := splitmix64(h)
	u := float64(h>>11) / (1 << 53)
	w := s.w
	switch {
	case u < w.GetFrac:
		return op{kind: opGet, key: pick(s.gets, h2)}
	case u < w.GetFrac+w.SetFrac:
		pool, fresh := s.sets, float64(h2>>11)/(1<<53) < w.FreshSetFrac
		if fresh {
			pool = s.fresh
		}
		k := pick(pool, splitmix64(h2))
		return op{kind: opSet, key: k, val: tagValue(k, s.conn, i), fresh: fresh}
	case u < w.GetFrac+w.SetFrac+w.DelFrac:
		return op{kind: opDel, key: pick(s.dels, h2)}
	default:
		q := s.scans[h2%uint64(len(s.scans))]
		return op{kind: opScan, key: uint64(q.Lo), hi: uint64(q.Hi)}
	}
}

func pick(pool []uint64, h uint64) uint64 { return pool[h%uint64(len(pool))] }

// model is one connection's view of the store: the shared initial keys
// plus an overlay of every write the connection has sent. Only the
// connection's sender touches it.
type model struct {
	base []uint64
	over map[uint64]entry
}

type entry struct {
	val     uint64
	present bool
}

func newModel(base []uint64) *model {
	return &model{base: base, over: make(map[uint64]entry)}
}

func inSorted(keys []uint64, k uint64) bool {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	return i < len(keys) && keys[i] == k
}

// lookup returns the value a GET of k must answer.
func (m *model) lookup(k uint64, fresh bool) (v uint64, ok bool) {
	if e, hit := m.over[k]; hit {
		return e.val, e.present
	}
	if fresh {
		return 0, false
	}
	return payload(k), true
}

// apply records the write o and returns the answer the server must give:
// for a GET its value, for a DEL whether the key was present.
func (m *model) apply(o op) expect {
	switch o.kind {
	case opGet:
		v, ok := m.lookup(o.key, o.fresh)
		return expect{val: v, ok: ok}
	case opSet:
		m.over[o.key] = entry{val: o.val, present: true}
		return expect{}
	case opDel:
		_, ok := m.lookup(o.key, o.fresh)
		m.over[o.key] = entry{}
		return expect{ok: ok}
	default:
		return expect{own: m.ownInRange(o.key, o.hi)}
	}
}

// ownInRange lists the overlay entries of keys in [lo, hi] that the
// connection has overwritten, so a SCAN's own-key values can be checked
// exactly once the reply arrives. SCAN workloads keep the key set fixed,
// so the base keys enumerate every candidate.
func (m *model) ownInRange(lo, hi uint64) map[uint64]uint64 {
	var out map[uint64]uint64
	i := sort.Search(len(m.base), func(i int) bool { return m.base[i] >= lo })
	for ; i < len(m.base) && m.base[i] <= hi; i++ {
		if e, hit := m.over[m.base[i]]; hit {
			if out == nil {
				out = make(map[uint64]uint64)
			}
			out[m.base[i]] = e.val
		}
	}
	return out
}

// expect is the answer predicted for one request at send time.
type expect struct {
	val uint64
	ok  bool
	own map[uint64]uint64 // SCAN: own overwritten keys in range
}

func (o op) String() string {
	if o.kind == opScan {
		return fmt.Sprintf("SCAN [%d, %d]", o.key, o.hi)
	}
	return fmt.Sprintf("%s %d", o.kind, o.key)
}
