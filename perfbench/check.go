package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/wire"
)

// failures counts and prints every wrong or failed answer. Nothing is
// sampled or dropped: each mismatch is one line and one count.
type failures struct {
	mu  sync.Mutex
	n   atomic.Int64
	out io.Writer
}

func (f *failures) add(format string, args ...interface{}) {
	f.n.Add(1)
	f.mu.Lock()
	fmt.Fprintf(f.out, "MISMATCH "+format+"\n", args...)
	f.mu.Unlock()
}

// checker predicts replies. sent[c] is how many ops connection c has put
// on the wire; a foreign value in a SCAN must come from one of them.
type checker struct {
	d    *data
	sent *[numConns]atomic.Uint64
}

// check returns "" when rep is the answer to o that e predicts, else a
// description of the mismatch.
func (ck checker) check(conn int, o op, e expect, rep wire.Msg) string {
	if rep.Op == wire.RErr {
		return fmt.Sprintf("%s: error reply %q", o, rep.Err)
	}
	switch o.kind {
	case opGet:
		switch {
		case rep.Op == wire.RValue && e.ok && rep.Val == core.Value(e.val):
			return ""
		case rep.Op == wire.RNil && !e.ok:
			return ""
		case rep.Op == wire.RNil:
			return fmt.Sprintf("%s: missing, want %d", o, e.val)
		case rep.Op == wire.RValue && !e.ok:
			return fmt.Sprintf("%s: got %d, want absent", o, rep.Val)
		case rep.Op == wire.RValue:
			return fmt.Sprintf("%s: got %d, want %d", o, rep.Val, e.val)
		}
	case opSet:
		if rep.Op == wire.ROK {
			return ""
		}
	case opDel:
		if rep.Op == wire.RBool {
			if rep.Ok != e.ok {
				return fmt.Sprintf("%s: reported present=%v, want %v", o, rep.Ok, e.ok)
			}
			return ""
		}
	case opScan:
		if rep.Op == wire.RKVs {
			return ck.checkScan(conn, o, e, rep.Recs)
		}
	}
	return fmt.Sprintf("%s: unexpected reply %s", o, rep.Op)
}

// checkScan checks a SCAN result for bounds, order and exact content: the
// keys must be exactly the stored keys in range (SCAN workloads keep the
// key set fixed), own keys must carry the value the model predicts, and a
// foreign key's value must be its bulk-loaded payload or one its owner
// has already sent as a SET of that key.
func (ck checker) checkScan(conn int, o op, e expect, recs []core.KV) string {
	base := ck.d.keys
	i := sort.Search(len(base), func(i int) bool { return base[i] >= o.key })
	j := sort.Search(len(base), func(j int) bool { return base[j] > o.hi })
	want := base[i:j]
	for n, r := range recs {
		k, v := uint64(r.Key), uint64(r.Value)
		switch {
		case k < o.key || k > o.hi:
			return fmt.Sprintf("%s: record %d key %d out of bounds", o, n, k)
		case n > 0 && k <= uint64(recs[n-1].Key):
			return fmt.Sprintf("%s: record %d key %d out of order after %d", o, n, k, recs[n-1].Key)
		case n >= len(want) || k != want[n]:
			return fmt.Sprintf("%s: record %d key %d is not the stored key in that place", o, n, k)
		}
		if owner(k) == conn {
			exp := payload(k)
			if ov, hit := e.own[k]; hit {
				exp = ov
			}
			if v != exp {
				return fmt.Sprintf("%s: key %d value %d, want %d", o, k, v, exp)
			}
			continue
		}
		if !ck.written(k, v) {
			return fmt.Sprintf("%s: key %d value %d was never written", o, k, v)
		}
	}
	if len(recs) != len(want) {
		return fmt.Sprintf("%s: %d records, want %d", o, len(recs), len(want))
	}
	return ""
}

// written reports whether v is a value key k could hold: its bulk-loaded
// payload or the payload of a SET of k its owner has already sent.
func (ck checker) written(k, v uint64) bool {
	c, idx, original := decodeTag(k, v)
	if original {
		return true
	}
	if c != owner(k) || idx >= ck.sent[c].Load() {
		return false
	}
	o := ck.d.streams[c].op(idx)
	return o.kind == opSet && o.key == k && o.val == v
}

// readReply reads one logical reply, reassembling a chunked SCAN answer.
func readReply(r *wire.Reader) (wire.Msg, error) {
	m, err := r.Read()
	if err != nil || m.Op != wire.RKVsPart {
		return m, err
	}
	recs := m.Recs
	for {
		m, err = r.Read()
		if err != nil {
			return wire.Msg{}, err
		}
		switch m.Op {
		case wire.RKVsPart:
			recs = append(recs, m.Recs...)
		case wire.RKVs:
			m.Recs = append(recs, m.Recs...)
			return m, nil
		default:
			return wire.Msg{}, fmt.Errorf("%s interrupts a chunked SCAN reply", m.Op)
		}
	}
}
