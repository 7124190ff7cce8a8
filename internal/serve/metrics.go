package serve

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wmstream"
	"wmstream/internal/cluster"
	"wmstream/internal/obs"
	"wmstream/internal/sim"
)

// This file is a minimal, dependency-free Prometheus text-format
// (version 0.0.4) exporter: counters, labeled counter maps, and
// cumulative histograms, rendered in a stable sorted order so /metrics
// output is diffable and goldenable.

// counter is a monotonically increasing int64.
type counter struct{ v atomic.Int64 }

func (c *counter) inc()         { c.v.Add(1) }
func (c *counter) add(n int64)  { c.v.Add(n) }
func (c *counter) value() int64 { return c.v.Load() }

// labeledCounter is a counter family keyed by a rendered label string
// (e.g. `endpoint="compile",code="200"`).
type labeledCounter struct {
	mu   sync.Mutex
	vals map[string]*int64
}

func (l *labeledCounter) add(labels string, n int64) {
	l.mu.Lock()
	if l.vals == nil {
		l.vals = make(map[string]*int64)
	}
	p := l.vals[labels]
	if p == nil {
		p = new(int64)
		l.vals[labels] = p
	}
	*p += n
	l.mu.Unlock()
}

func (l *labeledCounter) snapshot() map[string]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int64, len(l.vals))
	for k, p := range l.vals {
		out[k] = *p
	}
	return out
}

// latencyBuckets are the request-duration histogram bounds in seconds,
// spanning cache hits (tens of microseconds) to heavy cold
// compile-and-run requests.
var latencyBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// histogram is a cumulative-bucket histogram in the Prometheus style.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // per upper bound, plus trailing +Inf bucket
	sum    float64
	count  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	idx := len(latencyBuckets)
	for n, ub := range latencyBuckets {
		if v <= ub {
			idx = n
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// metrics aggregates everything wmserved exports.  Gauges (queue
// depth, in-flight, cache occupancy, uptime) are read live at render
// time from their owners rather than mirrored here.
type metrics struct {
	requests  labeledCounter        // endpoint + status code
	latency   map[string]*histogram // per endpoint, fixed keys
	compiles  labeledCounter        // per O-level (O0..O3, custom)
	coalesced counter
	shed      counter
	jobs      labeledCounter // job lifecycle events (submitted, completed, ...)
	recovered labeledCounter // boot recovery outcomes (requeued, resumed, ...)
	slow      labeledCounter // busy time over the slow threshold, by endpoint

	// engineRuns counts completed simulation runs by the engine that
	// actually executed them ("auto" is resolved before counting, so
	// the labels name real engines: translated, fast, reference).
	engineRuns labeledCounter

	// forwards counts cluster routing decisions that left this node,
	// by owning peer and outcome: "ok" (peer response relayed),
	// "error" (transport failure mid-forward, degraded to local),
	// "down" (owner already marked down, degraded to local).
	forwards labeledCounter
	// forwardedIn counts requests this node executed on behalf of a
	// forwarding peer; cluster-wide, sum(forwards{outcome="ok"}) ==
	// sum(forwardedIn) — the reconciliation the soak test enforces,
	// up to forwards whose requester vanished mid-relay (the owner has
	// counted those before the front gives up on them).
	forwardedIn labeledCounter

	// waits records intentional long-poll parking time, which finishWait
	// excludes from the latency histograms so p99 reflects service time.
	waits map[string]*histogram

	simMu     sync.Mutex
	simCycles map[string]int64 // `unit="..",cause=".."` -> cycles

	// slowTrace holds, per endpoint, the trace ID of the most recent
	// slow request — an exemplar-style breadcrumb from /metrics into
	// /debug/traces/{id} with bounded cardinality (last-wins per
	// endpoint, one series each).
	slowMu    sync.Mutex
	slowTrace map[string]string
}

func newMetrics() *metrics {
	return &metrics{
		latency: map[string]*histogram{
			kindCompile:   newHistogram(),
			kindRun:       newHistogram(),
			kindJobs:      newHistogram(),
			kindJobPoll:   newHistogram(),
			kindJobCancel: newHistogram(),
		},
		waits: map[string]*histogram{
			kindJobPoll: newHistogram(),
		},
		simCycles: make(map[string]int64),
		slowTrace: make(map[string]string),
	}
}

func (m *metrics) observeRequest(endpoint string, code int, seconds float64) {
	m.requests.add(fmt.Sprintf(`endpoint=%q,code="%d"`, endpoint, code), 1)
	if h := m.latency[endpoint]; h != nil {
		h.observe(seconds)
	}
}

// observeWait records time a request intentionally spent parked (the
// job long-poll) in the wait histogram.
func (m *metrics) observeWait(endpoint string, seconds float64) {
	if h := m.waits[endpoint]; h != nil {
		h.observe(seconds)
	}
}

// observeSlow counts a slow request and remembers its trace ID as the
// endpoint's exemplar.
func (m *metrics) observeSlow(endpoint, traceID string) {
	m.slow.add(fmt.Sprintf(`endpoint=%q`, endpoint), 1)
	if traceID != "" {
		m.slowMu.Lock()
		m.slowTrace[endpoint] = traceID
		m.slowMu.Unlock()
	}
}

// observeEngineRun counts one simulation run against the engine that
// executed it; a name no engine answers to ran nothing and is not
// counted.
func (m *metrics) observeEngineRun(engine string) {
	if e, err := sim.ParseEngine(engine); err == nil {
		m.engineRuns.add(fmt.Sprintf(`engine=%q`, e), 1)
	}
}

// addSimUnits folds one run's per-unit cycle attribution (the
// internal/telemetry cause sums) into the cumulative per-cause
// counters, giving fleet-wide stall attribution across all served
// simulations.
func (m *metrics) addSimUnits(units []wmstream.UnitBreakdown) {
	m.simMu.Lock()
	defer m.simMu.Unlock()
	for _, u := range units {
		m.simCycles[fmt.Sprintf(`unit=%q,cause="issued"`, u.Unit)] += u.Issued
		m.simCycles[fmt.Sprintf(`unit=%q,cause="idle"`, u.Unit)] += u.Idle
		for cause, n := range u.Stalls {
			m.simCycles[fmt.Sprintf(`unit=%q,cause=%q`, u.Unit, cause)] += n
		}
	}
}

// gauges are the live values the server passes in at render time.
type gauges struct {
	sync, jobs classGauges // the scheduler's two classes
	cache      CacheStats
	uptime     float64

	jobsHeld int // jobs in the table, including terminal ones awaiting TTL

	journalMode    string // durable | degraded | crashed | memory
	journalBytes   int64
	journalDropped int64

	// transCache is the translated-engine cache snapshot, sampled at
	// scrape time.
	transCache wmstream.TransCacheStats

	// cluster is this node's cluster view, sampled at scrape time; nil
	// outside cluster mode (the cluster families are then omitted).
	cluster *cluster.Health

	// Go runtime health, sampled at scrape time.
	goroutines   int
	heapBytes    uint64
	gcPauseTotal float64 // cumulative GC stop-the-world pause, seconds
	openFDs      int     // -1 when the platform offers no cheap count

	traces obs.CollectorStats
}

// openFDCount counts this process's open file descriptors via
// /proc/self/fd; -1 where procfs is unavailable (the gauge is then
// omitted rather than reported as a lie).
func openFDCount() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	// The directory handle used for the listing is itself one entry.
	return len(ents) - 1
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one endpoint's cumulative buckets (the
// caller has already written the family HELP/TYPE header).
func writeHistogram(w io.Writer, name, endpoint string, h *histogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for n, ub := range latencyBuckets {
		cum += h.counts[n]
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=%q} %d\n", name, endpoint, trimFloat(ub), cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, endpoint, cum)
	fmt.Fprintf(w, "%s_sum{endpoint=%q} %g\n", name, endpoint, h.sum)
	fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, endpoint, h.count)
}

func writeLabeled(w io.Writer, name, help string, lc *labeledCounter) {
	writeHeader(w, name, help, "counter")
	snap := lc.snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", name, k, snap[k])
	}
}

// write renders every metric in the Prometheus text format.
func (m *metrics) write(w io.Writer, g gauges) {
	writeLabeled(w, "wmserved_requests_total", "Requests served, by endpoint and status code.", &m.requests)

	writeHeader(w, "wmserved_request_duration_seconds",
		"Request service latency, by endpoint (intentional long-poll waits excluded).", "histogram")
	for _, endpoint := range []string{kindCompile, kindRun, kindJobs, kindJobPoll, kindJobCancel} {
		writeHistogram(w, "wmserved_request_duration_seconds", endpoint, m.latency[endpoint])
	}

	writeHeader(w, "wmserved_longpoll_wait_seconds",
		"Time requests intentionally spent parked in a long-poll, by endpoint.", "histogram")
	writeHistogram(w, "wmserved_longpoll_wait_seconds", kindJobPoll, m.waits[kindJobPoll])

	writeLabeled(w, "wmserved_compiles_total", "Cold compiles executed, by optimization level.", &m.compiles)

	writeHeader(w, "wmserved_coalesced_total", "Requests served by piggybacking on an identical in-flight request.", "counter")
	fmt.Fprintf(w, "wmserved_coalesced_total %d\n", m.coalesced.value())
	writeHeader(w, "wmserved_shed_total", "Requests rejected with 429 because the queue was full.", "counter")
	fmt.Fprintf(w, "wmserved_shed_total %d\n", m.shed.value())

	writeHeader(w, "wmserved_cache_hits_total", "Content-addressed cache hits.", "counter")
	fmt.Fprintf(w, "wmserved_cache_hits_total %d\n", g.cache.Hits)
	writeHeader(w, "wmserved_cache_misses_total", "Content-addressed cache misses.", "counter")
	fmt.Fprintf(w, "wmserved_cache_misses_total %d\n", g.cache.Misses)
	writeHeader(w, "wmserved_cache_evictions_total", "Entries evicted to hold the byte budget.", "counter")
	fmt.Fprintf(w, "wmserved_cache_evictions_total %d\n", g.cache.Evictions)
	writeHeader(w, "wmserved_cache_entries", "Entries currently cached.", "gauge")
	fmt.Fprintf(w, "wmserved_cache_entries %d\n", g.cache.Entries)
	writeHeader(w, "wmserved_cache_bytes", "Bytes currently cached (bodies plus overhead).", "gauge")
	fmt.Fprintf(w, "wmserved_cache_bytes %d\n", g.cache.Bytes)

	writeLabeled(w, "wmserved_engine_runs_total",
		"Completed simulation runs, by the engine that executed them.", &m.engineRuns)

	writeHeader(w, "wmserved_translation_cache_entries", "Translated programs resident in the process-wide cache.", "gauge")
	fmt.Fprintf(w, "wmserved_translation_cache_entries %d\n", g.transCache.Entries)
	writeHeader(w, "wmserved_translation_cache_cap", "Translation cache capacity (entries).", "gauge")
	fmt.Fprintf(w, "wmserved_translation_cache_cap %d\n", g.transCache.Cap)
	writeHeader(w, "wmserved_translation_cache_hits_total", "Translation cache hits.", "counter")
	fmt.Fprintf(w, "wmserved_translation_cache_hits_total %d\n", g.transCache.Hits)
	writeHeader(w, "wmserved_translation_cache_misses_total", "Translation cache misses (each one is a fresh translation).", "counter")
	fmt.Fprintf(w, "wmserved_translation_cache_misses_total %d\n", g.transCache.Misses)
	writeHeader(w, "wmserved_translation_cache_evictions_total", "Translations evicted to hold the entry cap.", "counter")
	fmt.Fprintf(w, "wmserved_translation_cache_evictions_total %d\n", g.transCache.Evictions)

	if g.cluster != nil {
		writeLabeled(w, "wmserved_cluster_forwards_total",
			"Requests routed to an owning peer, by peer and outcome (ok, error, down; error/down degraded to local execution).", &m.forwards)
		writeLabeled(w, "wmserved_cluster_forwarded_in_total",
			"Requests executed here on behalf of a forwarding peer, by origin peer.", &m.forwardedIn)
		writeHeader(w, "wmserved_cluster_peer_up", "Peer health as seen by this node: 1 up, 0 down.", "gauge")
		for _, p := range g.cluster.Peers {
			up := 0
			if p.Up {
				up = 1
			}
			fmt.Fprintf(w, "wmserved_cluster_peer_up{peer=%q} %d\n", p.ID, up)
		}
		writeHeader(w, "wmserved_cluster_owned_keys_fraction",
			"Share of the consistent-hash key space owned by this node.", "gauge")
		fmt.Fprintf(w, "wmserved_cluster_owned_keys_fraction %g\n", g.cluster.OwnedFraction)
		writeHeader(w, "wmserved_cluster_nodes", "Configured cluster size, including this node.", "gauge")
		fmt.Fprintf(w, "wmserved_cluster_nodes %d\n", g.cluster.Nodes)
	}

	writeLabeled(w, "wmserved_jobs_total", "Asynchronous job lifecycle events, by event.", &m.jobs)
	writeHeader(w, "wmserved_jobs_queued", "Jobs waiting for a job worker.", "gauge")
	fmt.Fprintf(w, "wmserved_jobs_queued %d\n", g.jobs.queued)
	writeHeader(w, "wmserved_jobs_running", "Jobs currently executing.", "gauge")
	fmt.Fprintf(w, "wmserved_jobs_running %d\n", g.jobs.running)
	writeHeader(w, "wmserved_jobs_held", "Jobs retained in the table (queued, running, and terminal awaiting TTL).", "gauge")
	fmt.Fprintf(w, "wmserved_jobs_held %d\n", g.jobsHeld)

	writeLabeled(w, "wmserved_jobs_recovered_total", "Jobs recovered from the journal at boot, by outcome.", &m.recovered)
	writeHeader(w, "wmserved_journal_mode", "Job journal state: 1 for the active mode, 0 otherwise.", "gauge")
	for _, mode := range []string{"durable", "degraded", "crashed", "memory"} {
		v := 0
		if g.journalMode == mode {
			v = 1
		}
		fmt.Fprintf(w, "wmserved_journal_mode{mode=%q} %d\n", mode, v)
	}
	writeHeader(w, "wmserved_journal_bytes", "Bytes in the job journal's live segments.", "gauge")
	fmt.Fprintf(w, "wmserved_journal_bytes %d\n", g.journalBytes)
	writeHeader(w, "wmserved_journal_dropped_writes_total", "Journal appends dropped while degraded to memory-only.", "counter")
	fmt.Fprintf(w, "wmserved_journal_dropped_writes_total %d\n", g.journalDropped)

	writeHeader(w, "wmserved_queue_depth", "Requests waiting for a worker.", "gauge")
	fmt.Fprintf(w, "wmserved_queue_depth %d\n", g.sync.queued)
	writeHeader(w, "wmserved_inflight", "Requests currently executing on a worker.", "gauge")
	fmt.Fprintf(w, "wmserved_inflight %d\n", g.sync.running)
	writeHeader(w, "wmserved_workers", "Worker pool size.", "gauge")
	fmt.Fprintf(w, "wmserved_workers %d\n", g.sync.workers)
	writeHeader(w, "wmserved_uptime_seconds", "Seconds since the server started.", "gauge")
	fmt.Fprintf(w, "wmserved_uptime_seconds %g\n", g.uptime)

	writeHeader(w, "wmserved_sim_unit_cycles_total",
		"Simulated cycles across all served runs, by functional unit and telemetry cause.", "counter")
	m.simMu.Lock()
	keys := make([]string, 0, len(m.simCycles))
	for k := range m.simCycles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "wmserved_sim_unit_cycles_total{%s} %d\n", k, m.simCycles[k])
	}
	m.simMu.Unlock()

	writeLabeled(w, "wmserved_slow_requests_total",
		"Requests whose busy time crossed the slow-trace threshold, by endpoint.", &m.slow)
	writeHeader(w, "wmserved_slow_request_trace_info",
		"Trace ID of each endpoint's most recent slow request (always 1; follow the trace_id label to /debug/traces).", "gauge")
	m.slowMu.Lock()
	eps := make([]string, 0, len(m.slowTrace))
	for ep := range m.slowTrace {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		fmt.Fprintf(w, "wmserved_slow_request_trace_info{endpoint=%q,trace_id=%q} 1\n", ep, m.slowTrace[ep])
	}
	m.slowMu.Unlock()

	writeHeader(w, "wmserved_traces_started_total", "Traces started.", "counter")
	fmt.Fprintf(w, "wmserved_traces_started_total %d\n", g.traces.Started)
	writeHeader(w, "wmserved_traces_finished_total", "Traces finished.", "counter")
	fmt.Fprintf(w, "wmserved_traces_finished_total %d\n", g.traces.Finished)
	writeHeader(w, "wmserved_traces_retained_total",
		"Finished traces retained, by ring (slow keeps slow/errored traces, recent keeps head-sampled ordinary ones).", "counter")
	fmt.Fprintf(w, "wmserved_traces_retained_total{ring=\"recent\"} %d\n", g.traces.KeptHead)
	fmt.Fprintf(w, "wmserved_traces_retained_total{ring=\"slow\"} %d\n", g.traces.KeptSlow)
	writeHeader(w, "wmserved_traces_active", "Traces currently open.", "gauge")
	fmt.Fprintf(w, "wmserved_traces_active %d\n", g.traces.Active)

	writeHeader(w, "wmserved_go_goroutines", "Live goroutines.", "gauge")
	fmt.Fprintf(w, "wmserved_go_goroutines %d\n", g.goroutines)
	writeHeader(w, "wmserved_go_heap_bytes", "Heap bytes in use (runtime.MemStats.HeapAlloc).", "gauge")
	fmt.Fprintf(w, "wmserved_go_heap_bytes %d\n", g.heapBytes)
	writeHeader(w, "wmserved_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	fmt.Fprintf(w, "wmserved_go_gc_pause_seconds_total %g\n", g.gcPauseTotal)
	if g.openFDs >= 0 {
		writeHeader(w, "wmserved_open_fds", "Open file descriptors.", "gauge")
		fmt.Fprintf(w, "wmserved_open_fds %d\n", g.openFDs)
	}
}

// trimFloat renders a bucket bound the way Prometheus clients expect
// (no trailing zeros, no scientific notation for these magnitudes).
func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return strings.TrimPrefix(s, "+")
}
