package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/wire"
)

// countingConn counts the bytes the client exchanges with the server, so
// the server's /proc I/O counters can be split into socket and file I/O.
type countingConn struct {
	net.Conn
	rd, wr *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr.Add(int64(n))
	return n, err
}

// session is the client's connections to one server over one data set.
type session struct {
	d     *data
	conns [numConns]net.Conn
	r     [numConns]*wire.Reader
	w     [numConns]*wire.Writer
	m     [numConns]*model
	next  [numConns]uint64 // next op index per connection
	sent  [numConns]atomic.Uint64
	fails *failures

	attempted atomic.Int64
	// bytesRead and bytesWritten count the client's socket traffic.
	bytesRead, bytesWritten atomic.Int64
}

func dialSession(d *data, addr string, fails *failures) (*session, error) {
	s := &session{d: d, fails: fails}
	for c := range s.conns {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		nc.(*net.TCPConn).SetNoDelay(true)
		cc := countingConn{Conn: nc, rd: &s.bytesRead, wr: &s.bytesWritten}
		s.conns[c] = nc
		s.r[c] = wire.NewReader(cc, 0)
		s.w[c] = wire.NewWriter(cc, 0)
		s.m[c] = newModel(d.keys)
	}
	return s, nil
}

func (s *session) close() {
	for _, nc := range s.conns {
		if nc != nil {
			nc.Close()
		}
	}
}

func (s *session) checker() checker { return checker{d: s.d, sent: &s.sent} }

// pending is one request on the wire and the answer predicted for it.
type pending struct {
	o    op
	e    expect
	due  int64 // phase-clock ns the request was due (open loop) or sent
	sent int64
}

// send predicts and writes the connection's next op (without flushing).
func (s *session) send(c int, due, now int64) (pending, error) {
	i := s.next[c]
	s.next[c]++
	o := s.d.streams[c].op(i)
	p := pending{o: o, e: s.m[c].apply(o), due: due, sent: now}
	// Counted before the bytes leave, so a SCAN that observes this SET on
	// the other connection always finds it counted.
	s.sent[c].Store(i + 1)
	s.attempted.Add(1)
	m := wire.Msg{Key: core.Key(o.key)}
	switch o.kind {
	case opGet:
		m.Op = wire.OpGet
	case opSet:
		m.Op, m.Val = wire.OpSet, core.Value(o.val)
	case opDel:
		m.Op = wire.OpDel
	case opScan:
		m.Op, m.Lo, m.Hi = wire.OpScan, core.Key(o.key), core.Key(o.hi)
	}
	return p, s.w[c].Write(&m)
}

// take reads and checks the reply to p, returning the phase-clock time
// it arrived.
func (s *session) take(c int, ck checker, p pending, clock func() int64) (int64, error) {
	rep, err := readReply(s.r[c])
	if err != nil {
		return 0, fmt.Errorf("conn %d: read reply to %s: %w", c, p.o, err)
	}
	now := clock()
	if msg := ck.check(c, p.o, p.e, rep); msg != "" {
		s.fails.add("conn %d %s", c, msg)
	}
	return now, nil
}

// receive reads one reply per pending request until pend closes and
// hands each to done with its arrival time.
func (s *session) receive(c int, pend <-chan pending, clock func() int64, done func(p pending, now int64)) error {
	ck := s.checker()
	for p := range pend {
		now, err := s.take(c, ck, p, clock)
		if err != nil {
			return err
		}
		done(p, now)
	}
	return nil
}

// runConns runs loop once per connection in parallel. On an error the
// connections are closed so the peer goroutines unblock.
func (s *session) runConns(loop func(c int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, numConns)
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if errs[c] = loop(c); errs[c] != nil {
				s.close()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs one connection's open-loop sender (the calling goroutine)
// against its receiver goroutine.
func (s *session) drive(c int, pend chan pending, clock func() int64, sender func() error, done func(p pending, now int64)) error {
	rerr := make(chan error, 1)
	go func() {
		err := s.receive(c, pend, clock, done)
		if err != nil {
			// Fail the sender's next write, and drain pend so a sender
			// waiting on a full channel moves on to that write.
			s.conns[c].Close()
			for range pend {
			}
		}
		rerr <- err
	}()
	serr := sender()
	if serr == nil {
		serr = s.w[c].Flush()
	}
	close(pend)
	if serr != nil {
		s.conns[c].Close()
		<-rerr
		return fmt.Errorf("conn %d: send: %w", c, serr)
	}
	return <-rerr
}

// closedResult is a closed-loop phase: its completions and its
// sub-windows.
type closedResult struct {
	dur     time.Duration
	ops     int64
	windows []closedWindow
}

// closedWindow is the stretch of a closed loop between two marks.
type closedWindow struct {
	dur   time.Duration
	ops   int64
	steal float64 // share of the machine's CPU time the hypervisor stole
	cpu   int64   // server CPU ticks, when the phase had a CPU counter
	calib float64 // calibrate's ns per round trip, mean of the two marks
}

// mark is what the closed loop reads at a round boundary: the time
// before and after reading, the ops completed, and the counters.
type mark struct {
	start, end int64
	ops        int64
	host       hostCPU
	cpu        int64
	calib      float64
}

// The closed loop takes a mark about every 1/throughputWindows of its
// time. The reported throughput leaves out the windows in which the
// hypervisor stole more than maxStealFrac of the CPU time, which measure
// the host's other guests rather than the program; if that leaves fewer
// than half, it keeps the calmest half.
const (
	throughputWindows = 24
	maxStealFrac      = 0.02
)

// closed runs the connections in lockstep rounds for dur: in each round
// every connection's goroutine sends window requests in one flush and
// reads all their replies, and the next round starts when every
// connection is done. The server then always reads groups of window
// requests, one per connection at a time, however the host schedules
// the two processes, so the work per op does not move with timing.
// Between rounds, with no request outstanding, the last connection to
// finish takes the marks; a non-nil cpu is read at each.
func (s *session) closed(dur time.Duration, cpu func() (int64, error)) (closedResult, error) {
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	end, step := int64(dur), int64(dur)/throughputWindows
	var (
		marks    []mark
		rounds   int64
		markErr  error
		nextMark int64
	)
	takeMark := func(now int64) error {
		m := mark{start: now, ops: rounds * window * numConns}
		var err error
		if m.host, err = readHostCPU(); err != nil {
			return err
		}
		if cpu != nil {
			if m.cpu, err = cpu(); err != nil {
				return err
			}
		}
		m.calib = calibrate()
		m.end = clock()
		marks = append(marks, m)
		return nil
	}
	barrier := newBarrier(numConns, func() bool {
		now := clock()
		if now >= nextMark || now >= end {
			if markErr = takeMark(now); markErr != nil {
				return false
			}
			nextMark = now + step
		}
		rounds++
		return now < end
	})
	err := s.runConns(func(c int) error {
		defer barrier.abort()
		ck := s.checker()
		batch := make([]pending, window)
		for barrier.next() {
			now := clock()
			for i := range batch {
				p, err := s.send(c, now, now)
				if err != nil {
					return fmt.Errorf("conn %d: send: %w", c, err)
				}
				batch[i] = p
			}
			if err := s.w[c].Flush(); err != nil {
				return fmt.Errorf("conn %d: send: %w", c, err)
			}
			for _, p := range batch {
				if _, err := s.take(c, ck, p, clock); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		err = markErr
	}
	res := closedResult{dur: time.Duration(clock())}
	if len(marks) > 0 {
		res.ops = marks[len(marks)-1].ops
	}
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		res.windows = append(res.windows, closedWindow{
			dur:   time.Duration(b.start - a.end),
			ops:   b.ops - a.ops,
			steal: ratio(float64(b.host.steal-a.host.steal), float64(b.host.total-a.host.total)),
			cpu:   b.cpu - a.cpu,
			calib: (a.calib + b.calib) / 2,
		})
	}
	return res, err
}

// barrier holds parties goroutines at the end of each round until all
// have arrived. The last to arrive runs last, whose answer tells every
// party whether another round runs, so all stop after the same round.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	last    func() bool
	waiting int
	gen     int
	more    bool
	broken  bool
}

func newBarrier(parties int, last func() bool) *barrier {
	b := &barrier{parties: parties, last: last}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// next waits for every party and reports whether another round runs. It
// returns false once the barrier is broken.
func (b *barrier) next() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	gen := b.gen
	if b.waiting++; b.waiting == b.parties {
		b.waiting, b.more = 0, b.last()
		b.gen++
		b.cond.Broadcast()
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	return b.more && !b.broken
}

// abort breaks the barrier: every waiting and later call to next returns
// false. A party calls it when it leaves, so no other waits for it.
func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// refWakeNS is the reference host's calibrate result. The closed loop's
// CPU time per op is scaled by refWakeNS over the loop's median
// calibration, which takes out the host's load of the moment (see
// calib_linux.go).
const refWakeNS = 10_000

// windowCPUUSPerOp is the server's CPU time per completed op, in
// microseconds, and the calibration, in each window after the first,
// which is warm-up.
func (r closedResult) windowCPUUSPerOp() (us, calib []float64) {
	for _, w := range r.windows[min(1, len(r.windows)):] {
		if w.ops > 0 {
			us = append(us, float64(w.cpu)*1e6/clockTicks/float64(w.ops))
			calib = append(calib, w.calib)
		}
	}
	return us, calib
}

// windowKops is the throughput of each window in thousands of ops per
// second.
func (r closedResult) windowKops() []float64 {
	k := make([]float64, len(r.windows))
	for i, w := range r.windows {
		k[i] = ratio(float64(w.ops), w.dur.Seconds()) / 1e3
	}
	return k
}

// windowField is one field of every window.
func (r closedResult) windowField(f func(closedWindow) float64) []float64 {
	v := make([]float64, len(r.windows))
	for i, w := range r.windows {
		v[i] = f(w)
	}
	return v
}

// kops is the throughput in thousands of ops per second over the windows
// the host left alone (see maxStealFrac). It is a mean over those
// windows, not a median, so periodic background work (checkpoints,
// compactions) weighs in by the share of time it takes.
func (r closedResult) kops() float64 {
	ws := append([]closedWindow(nil), r.windows...)
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].steal < ws[b].steal })
	keep := len(ws)
	for keep > (len(ws)+1)/2 && ws[keep-1].steal > maxStealFrac {
		keep--
	}
	var ops int64
	var dur time.Duration
	for _, w := range ws[:keep] {
		ops += w.ops
		dur += w.dur
	}
	return ratio(float64(ops), dur.Seconds()) / 1e3
}

// openResult is an open-loop phase: exact per-request latencies, timed
// from each request's due time, by op family and latency window.
type openResult struct {
	dur    time.Duration
	lat    [numFams][]sample
	maxLag int64
	sentNS int64 // summed send-to-reply time
	ops    int64
}

type sample struct {
	due, lat int64
}

// open sends rate requests per second, split evenly over the
// connections, each at its due time whether or not earlier replies have
// arrived.
func (s *session) open(dur time.Duration, rate int) (openResult, error) {
	res := openResult{dur: dur}
	var mu sync.Mutex
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	end := int64(dur)
	period := int64(time.Second) * numConns / int64(rate)
	err := s.runConns(func(c int) error {
		var lat [numFams][]sample
		var maxLag, sentNS, ops int64
		// Requests in flight are bounded only by the rate; the channel
		// holds the requests of several seconds so the sender never waits.
		pend := make(chan pending, rate/numConns*4)
		err := s.drive(c, pend, clock, func() error {
			// The thread stays pinned until the goroutine exits, so it
			// never carries the changed timer slack to other goroutines.
			// The client runs with spare Ps (clientProcs), so a sender
			// asleep in nanosleep holds no P another goroutine waits for.
			preciseSleeper()
			// Connections start half a period apart.
			for i := int64(0); ; i++ {
				due := i*period + int64(c)*period/numConns
				if due >= end {
					return nil
				}
				now := clock()
				if due > now {
					if err := s.w[c].Flush(); err != nil {
						return err
					}
					preciseSleep(time.Duration(due - now))
					now = clock()
				}
				if lag := now - due; lag > maxLag {
					maxLag = lag
				}
				p, err := s.send(c, due, now)
				if err != nil {
					return err
				}
				pend <- p
			}
		}, func(p pending, now int64) {
			f := p.o.kind.family()
			lat[f] = append(lat[f], sample{due: p.due, lat: now - p.due})
			sentNS += now - p.sent
			ops++
		})
		mu.Lock()
		for f := range lat {
			res.lat[f] = append(res.lat[f], lat[f]...)
		}
		if maxLag > res.maxLag {
			res.maxLag = maxLag
		}
		res.sentNS += sentNS
		res.ops += ops
		mu.Unlock()
		return err
	})
	return res, err
}

// Latency percentiles are the median over consecutive windows of a
// family's samples, so a burst of host noise moves a few windows rather
// than the result. A window holds at least minWindowSamples samples, so
// its p99 rests on at least 20 samples beyond it; there are at most
// maxLatencyWindows. Requests due in the first warmupShare of the phase
// are not reported: the server is still settling from the closed loop.
const (
	minWindowSamples  = 2000
	maxLatencyWindows = 20
	warmupShare       = 0.1
)

// quantileUS returns the exact q-quantile of family f in microseconds as
// the median over latency windows, and the sample count it rests on.
func (r openResult) quantileUS(f int, q float64) (float64, int) {
	vals, n := r.windowQuantilesUS(f, q)
	return median(vals), n
}

// windowQuantilesUS returns the exact q-quantile of family f in each
// latency window, in microseconds, and the sample count.
func (r openResult) windowQuantilesUS(f int, q float64) ([]float64, int) {
	warm := int64(float64(r.dur) * warmupShare)
	var xs []sample
	for _, s := range r.lat[f] {
		if s.due >= warm {
			xs = append(xs, s)
		}
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].due < xs[j].due })
	k := len(xs) / minWindowSamples
	if k > maxLatencyWindows {
		k = maxLatencyWindows
	}
	if k < 1 {
		k = 1
	}
	var vals []float64
	lat := make([]int64, 0, len(xs)/k+1)
	for w := 0; w < k && len(xs) > 0; w++ {
		lat = lat[:0]
		for _, s := range xs[w*len(xs)/k : (w+1)*len(xs)/k] {
			lat = append(lat, s.lat)
		}
		if len(lat) > 0 {
			vals = append(vals, float64(exactQuantile(lat, q))/1e3)
		}
	}
	return vals, len(xs)
}

// exactQuantile is the nearest-rank q-quantile of xs (sorted in place).
func exactQuantile(xs []int64, q float64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// verifyBatch is the MGET size used to read back every written key.
const verifyBatch = 1024

// verify reads back, over a fresh connection, every key the session's
// connections wrote, and checks it holds the last acknowledged write
// (present with its value, or gone). It returns the number of keys
// checked.
func (s *session) verify(addr string) (int, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc, 30*time.Second)
	checked := 0
	for c, m := range s.m {
		keys := make([]core.Key, 0, len(m.over))
		for k := range m.over {
			keys = append(keys, core.Key(k))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for len(keys) > 0 {
			n := len(keys)
			if n > verifyBatch {
				n = verifyBatch
			}
			vals, oks, err := cl.MGet(keys[:n])
			if err != nil {
				return checked, fmt.Errorf("verify MGET: %w", err)
			}
			for i, k := range keys[:n] {
				checked++
				e := m.over[uint64(k)]
				switch {
				case e.present && !oks[i]:
					s.fails.add("conn %d acknowledged SET %d lost after restart", c, k)
				case !e.present && oks[i]:
					s.fails.add("conn %d acknowledged DEL %d undone after restart (value %d)", c, k, vals[i])
				case e.present && uint64(vals[i]) != e.val:
					s.fails.add("conn %d key %d holds %d after restart, want %d", c, k, vals[i], e.val)
				}
			}
			keys = keys[n:]
		}
	}
	return checked, nil
}
