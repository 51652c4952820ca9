package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/serve"
	"github.com/lix-go/lix/internal/trace"
	"github.com/lix-go/lix/internal/wire"
)

func adminGet(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestAdminPlaneUnderTraffic serves every admin endpoint group —
// /metrics, /healthz, /readyz, /events, /topk, /debug/pprof/* — while
// wire traffic runs against the same stack, with full span sampling and
// hot-key telemetry on. Run under -race in CI, this is the acceptance
// pin that the admin plane reads the live data-plane state safely.
func TestAdminPlaneUnderTraffic(t *testing.T) {
	m := lix.NewMetrics("admin-e2e")
	stack, err := lix.NewStack(nil, lix.StackConfig{
		Shards:  4,
		Metrics: m,
		Trace:   &lix.TraceOptions{SampleRate: 1, SlowThreshold: time.Nanosecond, TopK: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{
		Metrics:    m,
		Tracer:     stack.Tracer(),
		CloseStore: true,
	})
	defer srv.Shutdown()

	admin := httptest.NewServer(serve.NewAdminHandler(serve.AdminConfig{
		Metrics: []*obs.Metrics{m},
		Tracer:  stack.Tracer(),
		Ready:   func() bool { return !srv.Draining() },
	}))
	defer admin.Close()

	// Background wire traffic: pipelined writes and skewed reads so the
	// hot-key sketch and every histogram family have data while the admin
	// endpoints are scraped concurrently.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
			if err != nil {
				t.Errorf("traffic dial: %v", err)
				return
			}
			defer c.Close()
			reqs := make([]wire.Msg, 0, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reqs = reqs[:0]
				for d := 0; d < 8; d++ {
					k := core.Key(w*1000 + i%50)
					reqs = append(reqs,
						wire.Msg{Op: wire.OpSet, Key: k, Val: core.Value(i)},
						wire.Msg{Op: wire.OpGet, Key: 42}) // everyone hammers key 42
				}
				if _, err := c.Pipeline(reqs, nil); err != nil {
					t.Errorf("traffic pipeline: %v", err)
					return
				}
			}
		}(w)
	}
	// Let some traffic land before scraping.
	time.Sleep(50 * time.Millisecond)

	// Every endpoint group, scraped concurrently with the traffic above.
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for i := 0; i < 5; i++ {
			adminGet(t, admin.URL, "/metrics")
			adminGet(t, admin.URL, "/topk")
		}
	}()

	if code, body := adminGet(t, admin.URL, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("index: code=%d body=%q", code, body)
	}
	if code, body := adminGet(t, admin.URL, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: code=%d body=%q", code, body)
	}
	if code, body := adminGet(t, admin.URL, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz: code=%d body=%q", code, body)
	}

	code, body := adminGet(t, admin.URL, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics: code=%d", code)
	}
	for _, want := range []string{
		"lix_lookups_total{index=\"admin-e2e\"}",
		"lix_decode_ns", "lix_dispatch_ns", "lix_shard_ns",
		"lix_topk_count{key=\"42\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = adminGet(t, admin.URL, "/events?n=8")
	if code != 200 {
		t.Fatalf("/events: code=%d", code)
	}
	var evs []obs.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Errorf("/events not JSON: %v\n%s", err, body)
	}

	code, body = adminGet(t, admin.URL, "/topk?n=4")
	if code != 200 {
		t.Fatalf("/topk: code=%d", code)
	}
	var top []trace.KeyCount
	if err := json.Unmarshal([]byte(body), &top); err != nil {
		t.Fatalf("/topk not JSON: %v\n%s", err, body)
	}
	if len(top) == 0 || len(top) > 4 {
		t.Fatalf("/topk?n=4 returned %d entries", len(top))
	}
	if top[0].Key != 42 {
		t.Errorf("hottest key = %d, want 42 (counts: %+v)", top[0].Key, top)
	}

	if code, body := adminGet(t, admin.URL, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _ := adminGet(t, admin.URL, "/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("/debug/pprof/goroutine: code=%d", code)
	}

	if code, _ := adminGet(t, admin.URL, "/nonexistent"); code != 404 {
		t.Errorf("unknown path: code=%d, want 404", code)
	}

	scrape.Wait()
	close(stop)
	wg.Wait()

	// Traffic with SampleRate=1 must have produced sampled spans.
	if got := stack.Tracer().Sampled(); got == 0 {
		t.Error("no spans sampled despite SampleRate=1")
	}
}

// TestAdminReadyzFlipsDuringDrain pins the readiness contract: /readyz
// answers 200 before Shutdown, flips to 503 the moment the drain begins
// (while an in-flight pipelined group is still being served), and the
// in-flight group's replies still reach the client.
func TestAdminReadyzFlipsDuringDrain(t *testing.T) {
	stack, err := lix.NewStack([]lix.KV{{Key: 1, Value: 11}}, lix.StackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateStore{Store: stack, entered: make(chan struct{}), release: make(chan struct{})}
	srv := startServer(t, gate, serve.Config{DrainTimeout: 10 * time.Second})

	admin := httptest.NewServer(serve.NewAdminHandler(serve.AdminConfig{
		Ready: func() bool { return !srv.Draining() },
	}))
	defer admin.Close()

	if code, _ := adminGet(t, admin.URL, "/readyz"); code != 200 {
		t.Fatalf("/readyz before drain: code=%d, want 200", code)
	}

	// Park a pipelined group inside the store.
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn, 0)
	w.Write(&wire.Msg{Op: wire.OpSet, Key: 3, Val: 33})
	w.Write(&wire.Msg{Op: wire.OpGet, Key: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown() }()

	// Draining flips as Shutdown begins; poll briefly to avoid racing the
	// goroutine's first instruction.
	flipped := false
	for i := 0; i < 100; i++ {
		if code, body := adminGet(t, admin.URL, "/readyz"); code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "draining") {
				t.Errorf("/readyz 503 body = %q, want draining", body)
			}
			flipped = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flipped {
		t.Error("/readyz never flipped to 503 during drain")
	}
	// Liveness stays green throughout the drain.
	if code, _ := adminGet(t, admin.URL, "/healthz"); code != 200 {
		t.Errorf("/healthz during drain: code=%d, want 200", code)
	}

	// The in-flight group still completes and its replies arrive.
	close(gate.release)
	r := wire.NewReader(conn, 0)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if rep, err := r.Read(); err != nil || rep.Op != wire.ROK {
		t.Fatalf("in-flight SET reply: %+v, %v", rep, err)
	}
	if rep, err := r.Read(); err != nil || rep.Op != wire.RValue || rep.Val != 11 {
		t.Fatalf("in-flight GET reply: %+v, %v", rep, err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Still 503 after the drain completes.
	if code, _ := adminGet(t, admin.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: code=%d, want 503", code)
	}
}

// TestSlowRequestTimelineE2E is the acceptance pin for span visibility:
// a sampled pipelined write group against a durable sharded stack must
// leave an EvSlowRequest event whose detail carries the full stage
// timeline — decode, dispatch, shard, wal and fsync.
func TestSlowRequestTimelineE2E(t *testing.T) {
	m := lix.NewMetrics("slow-e2e")
	stack, err := lix.NewStack([]lix.KV{}, lix.StackConfig{
		Dir:     t.TempDir(),
		Shards:  2,
		Fsync:   lix.FsyncAlways,
		Metrics: m,
		Trace:   &lix.TraceOptions{SampleRate: 1, SlowThreshold: time.Nanosecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, stack, serve.Config{
		Metrics:    m,
		Tracer:     stack.Tracer(),
		CloseStore: true,
	})
	defer srv.Shutdown()

	c, err := wire.DialTimeout(srv.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The server finishes a span after flushing its replies, so the client
	// can hold them before the event is published: the event handler is
	// the happens-before signal to wait on.
	slow := make(chan string, 1)
	m.Events.OnEvent(func(ev obs.Event) {
		if ev.Type == lix.EvSlowRequest && strings.Contains(ev.Detail, "wal=") {
			select {
			case slow <- ev.Detail:
			default:
			}
		}
	})

	// One pipelined write group: decode (parse), dispatch (group), wal +
	// shard apply + fsync (durable insert) all get span time.
	reqs := make([]wire.Msg, 16)
	for i := range reqs {
		reqs[i] = wire.Msg{Op: wire.OpSet, Key: core.Key(i), Val: core.Value(i)}
	}
	reps, err := c.Pipeline(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reps {
		if reps[i].Op != wire.ROK {
			t.Fatalf("SET %d: %+v", i, reps[i])
		}
	}

	var detail string
	select {
	case detail = <-slow:
	case <-time.After(10 * time.Second):
		t.Fatalf("no slow-request event with a wal stage within 10s despite 1ns threshold and full sampling; events: %+v",
			m.Events.Recent(64))
	}
	for _, stage := range []string{"ops=16", "decode=", "dispatch=", "shard=", "wal=", "fsync=", "total="} {
		if !strings.Contains(detail, stage) {
			t.Errorf("slow-request detail missing %q: %s", stage, detail)
		}
	}
	t.Logf("slow-request timeline: %s", detail)
}

// TestWriteTopKPrometheus covers the exported topk renderer directly:
// no-op without telemetry, gauge families with telemetry on.
func TestWriteTopKPrometheus(t *testing.T) {
	var sb strings.Builder
	serve.WriteTopKPrometheus(&sb, nil) // nil tracer: no-op
	if sb.Len() != 0 {
		t.Errorf("nil tracer rendered %q", sb.String())
	}

	tr := trace.New(trace.Config{TopK: 8})
	serve.WriteTopKPrometheus(&sb, tr) // empty sketch: no-op
	if sb.Len() != 0 {
		t.Errorf("empty sketch rendered %q", sb.String())
	}
	for i := 0; i < 10; i++ {
		tr.TouchKey(7)
	}
	tr.TouchKey(9)
	serve.WriteTopKPrometheus(&sb, tr)
	out := sb.String()
	for _, want := range []string{
		"# TYPE lix_topk_count gauge",
		fmt.Sprintf("lix_topk_count{key=\"7\"} %d", 10),
		"# TYPE lix_topk_err gauge",
		"lix_topk_err{key=\"9\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("topk exposition missing %q:\n%s", want, out)
		}
	}
}
