package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Metrics bundles the instrumentation one observed index (or a process-wide
// scope such as "all bounded searches") needs: operation counters, latency
// and cardinality histograms, last-mile search histograms, and the typed
// event stream. The zero value is not usable; call NewMetrics.
//
// Metrics implements Recorder, so it can be attached directly to an index
// Hook and to the core search helpers' recorder slot.
type Metrics struct {
	// Name labels snapshots, expvar variables and Prometheus series.
	Name string

	// Operation counters, maintained by the Observe wrappers.
	Lookups Counter // Get calls
	Hits    Counter // Get calls that found the key
	Inserts Counter
	Deletes Counter
	Ranges  Counter

	// Per-operation latency histograms in nanoseconds.
	GetNS    Histogram
	InsertNS Histogram
	DeleteNS Histogram
	RangeNS  Histogram

	// RangeLen is the result-cardinality histogram of Range scans.
	RangeLen Histogram

	// Batches counts batched operations (LookupBatch, InsertBatch,
	// DeleteBatch calls — one increment per batch, not per record; the
	// per-record work also lands in the operation counters above).
	Batches Counter
	// BatchNS is the whole-batch latency histogram in nanoseconds.
	BatchNS Histogram
	// BatchLen is the batch-cardinality histogram (records per batch).
	BatchLen Histogram

	// Probes and Window are the last-mile search histograms: probes per
	// bounded search and error-window width searched.
	Probes Histogram
	Window Histogram

	// FsyncNS is the WAL fsync-latency histogram in nanoseconds, fed by
	// the durable storage layer's group commits.
	FsyncNS Histogram

	// Per-stage request-span histograms in nanoseconds, fed by
	// internal/trace for sampled serving request groups: frame parse
	// time, group dispatch (covers the store calls), in-memory index
	// work, and WAL append. Fsync time appears in FsyncNS above.
	DecodeNS   Histogram
	DispatchNS Histogram
	ShardNS    Histogram
	WalNS      Histogram

	// Buffer-pool traffic from the paged storage tier (internal/page):
	// PageHits/PageMisses count pool lookups served from memory vs disk.
	// Evictions and write-backs are lower-frequency and flow through the
	// event stream (EvPageEvict, EvPageFlush), so they appear under
	// lix_events_total.
	PageHits   Counter
	PageMisses Counter

	// Learned LSM engine instrumentation, maintained by the durable
	// store's LSM engine (internal/store + internal/sst). The counters
	// accumulate per-run learned-filter outcomes (a probe resolves as a
	// skip, a false positive, or a genuine hit inside the run); the gauges
	// describe the current tier state and are refreshed after every
	// memtable flush and compaction. A run builds its learned filter on
	// its first probe, so both filter gauges cover built filters only:
	// FilterBytes is the summed memory of the built per-run filters (model
	// + backup); FilterFPRPpm is the measured false-positive rate of the
	// newest built filter in parts per million (a gauge because FPR is a
	// level, not a flow), 0 while none is built.
	FilterProbes Counter
	FilterSkips  Counter
	FilterFPs    Counter
	LSMRuns      Gauge
	LSMRunBytes  Gauge
	LSMTombs     Gauge
	FilterBytes  Gauge
	FilterFPRPpm Gauge

	// Serving front-end instrumentation, maintained by internal/serve:
	// Requests counts frames received, Errors counts error replies sent
	// (protocol violations and refused connections included), Groups
	// counts pipelined request groups dispatched, GroupLen is the
	// frames-per-group histogram, and Conns tracks currently open
	// connections.
	Requests Counter
	Errors   Counter
	Groups   Counter
	GroupLen Histogram
	Conns    Gauge

	// Events is the structural event stream.
	Events EventLog

	// Drift closes the §6.3 loop: every recorded search feeds its window
	// width (the correction cost) into the attached detector; a trip
	// publishes EvDriftTrip and latches until ReArmDrift.
	driftMu sync.Mutex
	drift   DriftDetector
	onTrip  func()
	tripped bool
}

// DriftDetector is the detector surface Metrics feeds: both drift.EWMA and
// drift.PageHinkley satisfy it.
type DriftDetector interface {
	// Observe records one cost sample and reports whether drift is
	// signaled.
	Observe(cost float64) bool
}

// NewMetrics returns an empty metrics bundle labeled name.
func NewMetrics(name string) *Metrics {
	return &Metrics{Name: name}
}

// Event implements Recorder: it stamps the bundle's name on unlabeled
// events and publishes to the event stream.
func (m *Metrics) Event(e Event) {
	if e.Source == "" {
		e.Source = m.Name
	}
	m.Events.Publish(e)
}

// RecordPageAccess implements PageRecorder: one buffer-pool lookup, hit
// or miss.
func (m *Metrics) RecordPageAccess(hit bool) {
	if hit {
		m.PageHits.Inc()
	} else {
		m.PageMisses.Inc()
	}
}

// RecordSearch implements Recorder (and, structurally, the core package's
// SearchRecorder): it feeds the probe and window histograms and, when a
// drift detector is attached, the correction-cost stream.
func (m *Metrics) RecordSearch(probes, window int) {
	if probes < 0 {
		probes = 0
	}
	if window < 0 {
		window = 0
	}
	m.Probes.Observe(uint64(probes))
	m.Window.Observe(uint64(window))
	m.feedDrift(float64(window))
}

// SetDriftDetector attaches d to the correction-cost stream: every
// recorded search window is fed to d.Observe; when it signals, an
// EvDriftTrip event is published, onTrip (optional, may be nil) runs
// synchronously, and the feed latches off until ReArmDrift. Passing a nil
// detector detaches.
func (m *Metrics) SetDriftDetector(d DriftDetector, onTrip func()) {
	m.driftMu.Lock()
	m.drift = d
	m.onTrip = onTrip
	m.tripped = false
	m.driftMu.Unlock()
}

// ReArmDrift re-enables the drift feed after a trip (typically after the
// caller retrained the index and Reset the detector).
func (m *Metrics) ReArmDrift() {
	m.driftMu.Lock()
	m.tripped = false
	m.driftMu.Unlock()
}

// DriftTripped reports whether the attached detector has signaled and the
// feed is latched.
func (m *Metrics) DriftTripped() bool {
	m.driftMu.Lock()
	defer m.driftMu.Unlock()
	return m.tripped
}

func (m *Metrics) feedDrift(cost float64) {
	m.driftMu.Lock()
	d, fired := m.drift, false
	if d != nil && !m.tripped && d.Observe(cost) {
		m.tripped = true
		fired = true
	}
	onTrip := m.onTrip
	m.driftMu.Unlock()
	if fired {
		m.Event(Event{Type: EvDriftTrip, N: int(cost)})
		if onTrip != nil {
			onTrip()
		}
	}
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

// HistogramSummary is the exported view of one histogram: totals plus
// quantile estimates.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	P999  uint64  `json:"p999"`
	Max   uint64  `json:"max"`

	raw HistSnapshot
}

func summarize(h *Histogram) HistogramSummary {
	s := h.Snapshot()
	return HistogramSummary{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
		Max:   s.Max,
		raw:   s,
	}
}

// Snapshot is a point-in-time, JSON-encodable view of a Metrics bundle.
type Snapshot struct {
	Name       string                      `json:"name"`
	Counters   map[string]uint64           `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
	Events     map[string]uint64           `json:"events"`
	Recent     []Event                     `json:"recent_events,omitempty"`
}

// counterNames fixes the rendering order of the counter set.
var counterNames = []string{
	"lookups", "hits", "inserts", "deletes", "ranges", "batches",
	"requests", "errors", "groups", "page_hits", "page_misses",
	"lsm_filter_probes", "lsm_filter_skips", "lsm_filter_false_positives",
}

// histNames fixes the rendering order of the histogram set.
var histNames = []string{
	"get_ns", "insert_ns", "delete_ns", "range_ns",
	"range_len", "batch_ns", "batch_len", "search_probes", "search_window", "fsync_ns",
	"group_len",
	"decode_ns", "dispatch_ns", "shard_ns", "wal_ns",
}

// gaugeNames fixes the rendering order of the gauge set.
var gaugeNames = []string{
	"conns",
	"lsm_runs", "lsm_run_bytes", "lsm_tombstones",
	"lbf_filter_bytes", "lbf_filter_fpr_ppm",
}

func (m *Metrics) counter(name string) *Counter {
	switch name {
	case "lookups":
		return &m.Lookups
	case "hits":
		return &m.Hits
	case "inserts":
		return &m.Inserts
	case "deletes":
		return &m.Deletes
	case "ranges":
		return &m.Ranges
	case "batches":
		return &m.Batches
	case "requests":
		return &m.Requests
	case "errors":
		return &m.Errors
	case "groups":
		return &m.Groups
	case "page_hits":
		return &m.PageHits
	case "page_misses":
		return &m.PageMisses
	case "lsm_filter_probes":
		return &m.FilterProbes
	case "lsm_filter_skips":
		return &m.FilterSkips
	case "lsm_filter_false_positives":
		return &m.FilterFPs
	}
	return nil
}

func (m *Metrics) gauge(name string) *Gauge {
	switch name {
	case "conns":
		return &m.Conns
	case "lsm_runs":
		return &m.LSMRuns
	case "lsm_run_bytes":
		return &m.LSMRunBytes
	case "lsm_tombstones":
		return &m.LSMTombs
	case "lbf_filter_bytes":
		return &m.FilterBytes
	case "lbf_filter_fpr_ppm":
		return &m.FilterFPRPpm
	}
	return nil
}

func (m *Metrics) histogram(name string) *Histogram {
	switch name {
	case "get_ns":
		return &m.GetNS
	case "insert_ns":
		return &m.InsertNS
	case "delete_ns":
		return &m.DeleteNS
	case "range_ns":
		return &m.RangeNS
	case "range_len":
		return &m.RangeLen
	case "batch_ns":
		return &m.BatchNS
	case "batch_len":
		return &m.BatchLen
	case "search_probes":
		return &m.Probes
	case "search_window":
		return &m.Window
	case "fsync_ns":
		return &m.FsyncNS
	case "group_len":
		return &m.GroupLen
	case "decode_ns":
		return &m.DecodeNS
	case "dispatch_ns":
		return &m.DispatchNS
	case "shard_ns":
		return &m.ShardNS
	case "wal_ns":
		return &m.WalNS
	}
	return nil
}

// Snapshot returns a point-in-time view with quantile estimates and the
// most recent events.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Name:       m.Name,
		Counters:   make(map[string]uint64, len(counterNames)),
		Gauges:     make(map[string]int64, len(gaugeNames)),
		Histograms: make(map[string]HistogramSummary, len(histNames)),
		Events:     make(map[string]uint64, int(numEventTypes)),
	}
	for _, n := range counterNames {
		s.Counters[n] = m.counter(n).Load()
	}
	for _, n := range gaugeNames {
		s.Gauges[n] = m.gauge(n).Load()
	}
	for _, n := range histNames {
		s.Histograms[n] = summarize(m.histogram(n))
	}
	for _, t := range EventTypes() {
		s.Events[t.String()] = m.Events.Count(t)
	}
	s.Recent = m.Events.Recent(32)
	return s
}

// PublishExpvar publishes the bundle under the given expvar name; each read
// of the variable takes a fresh snapshot. It returns an error instead of
// panicking when the name is already taken (expvar registration is global
// and permanent).
func (m *Metrics) PublishExpvar(name string) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return m.Snapshot() }))
	return nil
}

// ---------------------------------------------------------------------------
// Prometheus text rendering (no external dependencies)
// ---------------------------------------------------------------------------

// escapeLabelValue renders s as a quoted Prometheus label value. The
// exposition format defines exactly three escapes inside label values —
// backslash, double quote, and line feed — and every other byte is
// literal. Go's %q is NOT equivalent: it escapes tabs, control bytes and
// non-ASCII runes as \t/\xNN/\uNNNN, sequences the exposition parser
// rejects or misreads, which is why this hand-rolled escaper exists.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return `"` + s + `"`
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// escapeMetricName coerces a bundle-derived metric-name fragment to the
// [a-zA-Z0-9_:] alphabet the exposition format allows in metric names,
// replacing every other byte with '_'.
func escapeMetricName(s string) string {
	ok := func(c byte) bool {
		return c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
	}
	clean := true
	for i := 0; i < len(s); i++ {
		if !ok(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	out := []byte(s)
	for i, c := range out {
		if !ok(c) {
			out[i] = '_'
		}
	}
	return string(out)
}

// WritePrometheus renders the bundle in the Prometheus text exposition
// format: counters as lix_<name>_total, histograms as classic cumulative
// lix_<name>{le=...} series, events as lix_events_total{type=...}. All
// series carry an index="<Name>" label so several bundles can be scraped
// from one endpoint.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	lbl := "index=" + escapeLabelValue(m.Name)
	for _, n := range counterNames {
		en := escapeMetricName(n)
		if _, err := fmt.Fprintf(w, "# TYPE lix_%s_total counter\nlix_%s_total{%s} %d\n",
			en, en, lbl, m.counter(n).Load()); err != nil {
			return err
		}
	}
	for _, n := range gaugeNames {
		en := escapeMetricName(n)
		if _, err := fmt.Fprintf(w, "# TYPE lix_%s gauge\nlix_%s{%s} %d\n",
			en, en, lbl, m.gauge(n).Load()); err != nil {
			return err
		}
	}
	for _, n := range histNames {
		if err := writePromHistogram(w, "lix_"+escapeMetricName(n), lbl, m.histogram(n).Snapshot()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE lix_events_total counter\n"); err != nil {
		return err
	}
	for _, t := range EventTypes() {
		if _, err := fmt.Fprintf(w, "lix_events_total{%s,type=%s} %d\n",
			lbl, escapeLabelValue(t.String()), m.Events.Count(t)); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram as cumulative le-buckets. Empty
// trailing buckets are elided; the mandatory le="+Inf" bucket always
// closes the series.
func writePromHistogram(w io.Writer, name, lbl string, s HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// Highest non-empty bucket bounds the emitted series.
	top := -1
	for i := range s.Buckets {
		if s.Buckets[i] > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n",
			name, lbl, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, lbl, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum{%s} %d\n%s_count{%s} %d\n",
		name, lbl, s.Sum, name, lbl, s.Count); err != nil {
		return err
	}
	return nil
}

// WritePrometheusAll renders several bundles to one writer, sorted by
// bundle name, deduplicating by name (last registration wins is avoided by
// requiring unique names — duplicates return an error).
func WritePrometheusAll(w io.Writer, ms ...*Metrics) error {
	sorted := append([]*Metrics(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i, m := range sorted {
		if i > 0 && sorted[i-1].Name == m.Name {
			return fmt.Errorf("obs: duplicate metrics name %q", m.Name)
		}
		if err := m.WritePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}
