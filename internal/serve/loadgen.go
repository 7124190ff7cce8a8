package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wmstream/internal/obs"
)

// LoadConfig parameterizes a load-generation run against a wmserved
// instance (used by cmd/wmload and the CI soak test).
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://localhost:8037".
	BaseURL string
	// BaseURLs, when set, sprays traffic across multiple nodes of a
	// wmserved cluster (overriding BaseURL); the report then breaks
	// latency and errors down per node in ByNode.  Target selection
	// follows Affinity.
	BaseURLs []string
	// Affinity selects the multi-endpoint target policy: "rr"
	// (default) round-robins every iteration across the endpoints;
	// "key" pins each distinct program to one endpoint (client-side
	// affinity — the node a key's requests land on stays fixed, the
	// way a session-affine load balancer would route).
	Affinity string
	// Duration bounds the run (default 10s).
	Duration time.Duration
	// Concurrency is the number of client goroutines (default 16).
	Concurrency int
	// HitFraction is the fraction of requests drawn from a small fixed
	// set of programs (cache-hit traffic); the rest are unique sources
	// that force cold compiles (default 0.7).
	HitFraction float64
	// RunFraction is the fraction of requests sent to /run rather than
	// /compile (default 0.5).
	RunFraction float64
	// JobFraction is the fraction of iterations that exercise the
	// asynchronous job API instead of a synchronous request: submit,
	// long-poll to a terminal state (or occasionally cancel midway).
	// Default 0 (sync traffic only).
	JobFraction float64
	// JobHeavy makes job traffic submit a compute-heavy program (a
	// distinct constant per job, so none is a cache hit) instead of
	// the hit/miss mix, so simulation time (not compile or queue time)
	// dominates and completed jobs per second becomes the headline
	// number — the scenario for comparing wmserved -job-workers
	// settings.
	// Cancel probes are disabled so every lifecycle counts toward
	// throughput.
	JobHeavy bool
	// Seed makes the traffic mix reproducible (default 1).
	Seed int64
	// Retries is how many times a shed submission (429 or 503) is
	// retried with capped exponential backoff before counting as shed.
	// The server's Retry-After hint, when present, sets the floor of
	// each wait.  Default 0 (shed responses are final).
	Retries int
	// Trace sends a W3C traceparent header with every request, so each
	// one is traced end to end on the server, and aggregates the
	// per-stage breakdowns the server echoes back in Server-Timing
	// headers into LoadReport.ByStage.
	Trace bool
	// Client overrides the HTTP client (default: http.DefaultClient
	// with the run duration plus slack as overall timeout).
	Client *http.Client
}

// EndpointLatency is the per-endpoint slice of a load report.
type EndpointLatency struct {
	Requests int64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// NodeStats is the per-target-node slice of a multi-endpoint load
// report: request count, error count (transport failures plus 5xx
// responses), and latency percentiles.
type NodeStats struct {
	Requests int64
	Errors   int64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// StageTiming aggregates one Server-Timing stage across all traced
// responses that reported it.
type StageTiming struct {
	Count int64
	Total time.Duration
}

// Mean is the stage's average duration per reporting request.
func (s StageTiming) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Requests int64
	Errors   int64 // transport-level failures
	// Retries counts shed (429/503) responses that were retried; the
	// final outcome of each retried request is tallied once in
	// ByStatus like any other.
	Retries  int64
	ByStatus map[int]int64
	ByCache  map[string]int64 // X-Cache header: hit / miss / coalesced
	// ByEndpoint breaks latency down per endpoint (compile, run, jobs,
	// jobs-poll, jobs-cancel); the top-level percentiles aggregate all.
	ByEndpoint map[string]EndpointLatency
	// ByNode breaks the run down per target node (multi-endpoint mode
	// only), keyed by base URL.
	ByNode map[string]NodeStats
	// ByJobState counts job lifecycles by the terminal state observed
	// (done / failed / canceled), plus "shed" for 429'd submissions and
	// "abandoned" for lifecycles cut off by the end of the run.
	ByJobState map[string]int64
	// ByStage aggregates the server-side per-stage breakdowns (queue
	// wait, compile, sim, journal, ...) from Server-Timing response
	// headers.  Populated only with LoadConfig.Trace.
	ByStage map[string]StageTiming
	// SlowestTrace is the server trace ID of the slowest traced request
	// — the place to start in GET /debug/traces after a bad run.
	SlowestTrace string
	SlowestDur   time.Duration
	Elapsed      time.Duration
	P50          time.Duration
	P95          time.Duration
	P99          time.Duration
	Max          time.Duration
}

// RPS is the achieved request throughput.
func (r *LoadReport) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// JobsPerSec is the rate of job lifecycles that reached "done" — the
// throughput metric of the JobHeavy scenario.
func (r *LoadReport) JobsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.ByJobState["done"]) / r.Elapsed.Seconds()
}

// String renders the report as an aligned summary table.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d in %v (%.1f req/s), %d transport errors\n",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.RPS(), r.Errors)
	if r.Retries > 0 {
		fmt.Fprintf(&b, "  retries (429/503 backoff): %d\n", r.Retries)
	}
	codes := make([]int, 0, len(r.ByStatus))
	for c := range r.ByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %d: %d\n", c, r.ByStatus[c])
	}
	for _, k := range []string{"hit", "miss", "coalesced"} {
		if n := r.ByCache[k]; n > 0 {
			fmt.Fprintf(&b, "  cache %-9s %d\n", k+":", n)
		}
	}
	if len(r.ByJobState) > 0 {
		states := make([]string, 0, len(r.ByJobState))
		for s := range r.ByJobState {
			states = append(states, s)
		}
		sort.Strings(states)
		for _, s := range states {
			fmt.Fprintf(&b, "  jobs %-10s %d\n", s+":", r.ByJobState[s])
		}
		if r.ByJobState["done"] > 0 {
			fmt.Fprintf(&b, "  jobs throughput: %.2f done/s\n", r.JobsPerSec())
		}
	}
	if len(r.ByStage) > 0 {
		stages := make([]string, 0, len(r.ByStage))
		for s := range r.ByStage {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		b.WriteString("  server stages (mean per reporting request):\n")
		for _, s := range stages {
			st := r.ByStage[s]
			fmt.Fprintf(&b, "    %-10s %v over %d requests\n", s, st.Mean().Round(time.Microsecond), st.Count)
		}
	}
	if r.SlowestTrace != "" {
		fmt.Fprintf(&b, "  slowest traced request: %v, trace %s (GET /debug/traces/%s)\n",
			r.SlowestDur.Round(time.Microsecond), r.SlowestTrace, r.SlowestTrace)
	}
	fmt.Fprintf(&b, "  latency p50 %v  p95 %v  p99 %v  max %v\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	eps := make([]string, 0, len(r.ByEndpoint))
	for e := range r.ByEndpoint {
		eps = append(eps, e)
	}
	sort.Strings(eps)
	for _, e := range eps {
		el := r.ByEndpoint[e]
		fmt.Fprintf(&b, "  %-12s %6d reqs  p50 %v  p95 %v  p99 %v  max %v\n",
			e, el.Requests,
			el.P50.Round(time.Microsecond), el.P95.Round(time.Microsecond),
			el.P99.Round(time.Microsecond), el.Max.Round(time.Microsecond))
	}
	if len(r.ByNode) > 0 {
		nodes := make([]string, 0, len(r.ByNode))
		for u := range r.ByNode {
			nodes = append(nodes, u)
		}
		sort.Strings(nodes)
		b.WriteString("  per node:\n")
		for _, u := range nodes {
			ns := r.ByNode[u]
			fmt.Fprintf(&b, "    %-28s %6d reqs  %d errors  p50 %v  p95 %v  p99 %v  max %v\n",
				u, ns.Requests, ns.Errors,
				ns.P50.Round(time.Microsecond), ns.P95.Round(time.Microsecond),
				ns.P99.Round(time.Microsecond), ns.Max.Round(time.Microsecond))
		}
	}
	return b.String()
}

// hitPrograms is the fixed set reused by hit traffic: small but real
// programs exercising scalar code, recurrences, and streaming.
var hitPrograms = []string{
	`int main(void) { int i, s; s = 0; for (i = 0; i < 100; i++) s = s + i; puti(s); return 0; }`,
	`double a[64];
int main(void) {
    int i; double s;
    for (i = 0; i < 64; i++) a[i] = i * 0.5;
    s = 0.0;
    for (i = 0; i < 64; i++) s = s + a[i];
    putd(s);
    return 0;
}`,
	`int v[128];
int main(void) {
    int i, s;
    for (i = 0; i < 128; i++) v[i] = i * 3;
    s = 0;
    for (i = 2; i < 128; i++) s = s + v[i] - v[i-2];
    puti(s);
    return 0;
}`,
	`double x[96], y[96];
int main(void) {
    int i; double s;
    for (i = 0; i < 96; i++) { x[i] = (i & 7) * 0.25; y[i] = (i & 3) * 0.5; }
    s = 0.0;
    for (i = 0; i < 96; i++) s = s + x[i] * y[i];
    putd(s);
    return 0;
}`,
}

// heavyJobProgram is the workload of the JobHeavy scenario: enough
// simulated cycles that one job spans many execution slices, so
// simulation dominates the job's cost, while still completing in well
// under a second of host time per job.  The job's sequence number n is baked in as the starting sum,
// so every job has its own content address and really simulates
// instead of completing from the response cache; the cycle count does
// not depend on n.
func heavyJobProgram(n int64) string {
	return fmt.Sprintf(`int main(void) {
    int i; double s;
    s = %d.0;
    for (i = 0; i < 300000; i++) s = s + i * 0.5;
    putd(s);
    return 0;
}`, n)
}

// missProgram builds a unique source (cold-compile traffic): the
// constant is baked into the text, so every n has a distinct content
// address.
func missProgram(n int64) string {
	return fmt.Sprintf(`int main(void) { int i, s; s = %d; for (i = 0; i < 50; i++) s = s + i * %d; puti(s); return 0; }`,
		n, n%17+1)
}

// loadShard is one client goroutine's private tallies, merged at the
// end (no cross-goroutine contention on the hot path).
type loadShard struct {
	requests, errors int64
	retries          int64
	maxRetries       int
	trace            bool
	byStatus         map[int]int64
	byCache          map[string]int64
	byJobState       map[string]int64
	byStage          map[string]StageTiming
	slowestTrace     string
	slowestDur       time.Duration
	lat              map[string][]time.Duration // endpoint -> samples
	retryAfter       time.Duration              // Retry-After from the last shed response

	// Multi-endpoint targeting: urls is the node list, node the target
	// of the current iteration (all of a job lifecycle's requests count
	// against the node that accepted the submit).
	urls     []string
	affinity string
	rr       uint64
	node     string
	nodeLat  map[string][]time.Duration
	nodeErr  map[string]int64
}

// target picks the base URL for one iteration and records it as the
// shard's current node.
func (sh *loadShard) target(src string) string {
	if len(sh.urls) == 1 {
		sh.node = sh.urls[0]
		return sh.node
	}
	var idx int
	if sh.affinity == "key" {
		// FNV-1a over the program text: each distinct program sticks to
		// one node, like a session-affine front balancer.
		h := uint32(2166136261)
		for i := 0; i < len(src); i++ {
			h = (h ^ uint32(src[i])) * 16777619
		}
		idx = int(h % uint32(len(sh.urls)))
	} else {
		idx = int(sh.rr % uint64(len(sh.urls)))
		sh.rr++
	}
	sh.node = sh.urls[idx]
	return sh.node
}

// observe records one completed HTTP exchange.
func (sh *loadShard) observe(endpoint string, resp *http.Response, dur time.Duration) {
	sh.requests++
	sh.byStatus[resp.StatusCode]++
	if len(sh.urls) > 1 {
		sh.nodeLat[sh.node] = append(sh.nodeLat[sh.node], dur)
		if resp.StatusCode >= http.StatusInternalServerError {
			sh.nodeErr[sh.node]++
		}
	}
	if xc := resp.Header.Get("X-Cache"); xc != "" {
		sh.byCache[xc]++
	}
	sh.retryAfter = 0
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			sh.retryAfter = time.Duration(secs) * time.Second
		}
	}
	if sh.trace {
		for stage, d := range parseServerTiming(resp.Header.Get("Server-Timing")) {
			st := sh.byStage[stage]
			st.Count++
			st.Total += d
			sh.byStage[stage] = st
		}
		if tid := resp.Header.Get("X-WM-Trace-Id"); tid != "" && dur > sh.slowestDur {
			sh.slowestDur, sh.slowestTrace = dur, tid
		}
	}
	sh.lat[endpoint] = append(sh.lat[endpoint], dur)
}

// parseServerTiming extracts the dur= metrics from a Server-Timing
// header ("queue;dur=0.123, compile;dur=4.5, cache;desc=hit").
// Metrics without a dur (like the cache state) are skipped.
func parseServerTiming(h string) map[string]time.Duration {
	if h == "" {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) < 2 || parts[0] == "" {
			continue
		}
		for _, p := range parts[1:] {
			if ms, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if v, err := strconv.ParseFloat(ms, 64); err == nil {
					out[parts[0]] = time.Duration(v * float64(time.Millisecond))
				}
			}
		}
	}
	return out
}

// post issues one JSON POST — retrying shed (429/503) responses up to
// maxRetries times with capped exponential backoff, never below the
// server's Retry-After hint — and returns the final status and body;
// (0, nil) on transport error.
func (sh *loadShard) post(ctx context.Context, client *http.Client, endpoint, url string, payload any) (int, []byte) {
	body, err := json.Marshal(payload)
	if err != nil {
		sh.errors++
		return 0, nil
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			sh.errors++
			return 0, nil
		}
		req.Header.Set("Content-Type", "application/json")
		status, rb := sh.do(client, endpoint, req)
		if (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) ||
			attempt >= sh.maxRetries {
			return status, rb
		}
		sh.retries++
		wait := shedBackoff(attempt)
		if sh.retryAfter > wait {
			wait = sh.retryAfter
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return status, rb
		}
	}
}

// shedBackoff is the nth (0-based) retry wait: 50ms doubling, capped
// at 2s.
func shedBackoff(attempt int) time.Duration {
	if attempt > 5 {
		attempt = 5
	}
	return 50 * time.Millisecond << attempt
}

func (sh *loadShard) do(client *http.Client, endpoint string, req *http.Request) (int, []byte) {
	if sh.trace {
		req.Header.Set("traceparent", obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID(), true))
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if req.Context().Err() == nil {
			sh.errors++
			if len(sh.urls) > 1 {
				sh.nodeErr[sh.node]++
			}
		}
		return 0, nil
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sh.observe(endpoint, resp, time.Since(start))
	return resp.StatusCode, rb
}

// syncIteration fires one /compile-or-/run request.
func (sh *loadShard) syncIteration(ctx context.Context, client *http.Client, cfg LoadConfig, rng *rand.Rand, w int, n int64) {
	src := hitPrograms[rng.Intn(len(hitPrograms))]
	if rng.Float64() >= cfg.HitFraction {
		src = missProgram(int64(w)<<32 | n)
	}
	endpoint := kindCompile
	if rng.Float64() < cfg.RunFraction {
		endpoint = kindRun
	}
	level := rng.Intn(4)
	base := sh.target(src)
	sh.post(ctx, client, endpoint, base+"/"+endpoint, &Request{Source: src, Level: &level})
}

// jobIteration drives one full job lifecycle: submit, then, unless the
// submission already answered it, either cancel midway (1 in 8) or
// long-poll generations to a terminal state.
func (sh *loadShard) jobIteration(ctx context.Context, client *http.Client, cfg LoadConfig, rng *rand.Rand, w int, n int64) {
	src := hitPrograms[rng.Intn(len(hitPrograms))]
	if rng.Float64() >= cfg.HitFraction {
		src = missProgram(int64(w)<<32 | n)
	}
	level := rng.Intn(4)
	if cfg.JobHeavy {
		src = heavyJobProgram(int64(w)<<32 | n)
		level = 3
	}
	// The whole lifecycle — submit, polls, cancel — stays on one node:
	// job IDs are node-local state, not content-addressed.
	base := sh.target(src)
	status, body := sh.post(ctx, client, kindJobs, base+"/jobs",
		&JobRequest{Request: Request{Source: src, Level: &level}, Tenant: fmt.Sprintf("t%d", w%4)})
	if status != http.StatusAccepted {
		if status == http.StatusTooManyRequests {
			sh.byJobState["shed"]++
		}
		return
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		sh.errors++
		return
	}
	switch jr.State {
	case "done", "failed", "canceled":
		// Answered at submission (a response-cache hit): nothing to poll.
		sh.byJobState[jr.State]++
		return
	}

	if !cfg.JobHeavy && rng.Intn(8) == 0 {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/jobs/"+jr.ID, nil)
		if err != nil {
			sh.errors++
			return
		}
		if st, _ := sh.do(client, kindJobCancel, req); st == http.StatusOK {
			sh.byJobState["canceled"]++
		}
		return
	}

	gen := jr.Gen
	for ctx.Err() == nil {
		url := fmt.Sprintf("%s/jobs/%s?gen=%d&wait=1s", base, jr.ID, gen)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			sh.errors++
			return
		}
		status, body := sh.do(client, kindJobPoll, req)
		if status != http.StatusOK {
			return
		}
		var poll JobResponse
		if err := json.Unmarshal(body, &poll); err != nil {
			sh.errors++
			return
		}
		gen = poll.Gen
		switch poll.State {
		case "done", "failed", "canceled":
			sh.byJobState[poll.State]++
			return
		}
	}
	sh.byJobState["abandoned"]++
}

// RunLoad fires mixed hit/miss compile/run (and, with JobFraction > 0,
// job-lifecycle) traffic at the server until the duration (or ctx)
// expires and reports what came back.  It fails only on configuration
// errors; transport errors are counted, not fatal, so a report is
// produced even against a flaky target.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	urls := cfg.BaseURLs
	if len(urls) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("loadgen: BaseURL or BaseURLs required")
		}
		urls = []string{cfg.BaseURL}
	}
	for _, u := range urls {
		if u == "" {
			return nil, fmt.Errorf("loadgen: empty base URL in BaseURLs")
		}
	}
	switch cfg.Affinity {
	case "", "rr", "key":
	default:
		return nil, fmt.Errorf("loadgen: Affinity must be rr or key, got %q", cfg.Affinity)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	if cfg.HitFraction == 0 {
		cfg.HitFraction = 0.7
	}
	if cfg.RunFraction == 0 {
		cfg.RunFraction = 0.5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Duration + 30*time.Second}
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	shards := make([]loadShard, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := &shards[w]
			sh.maxRetries = cfg.Retries
			sh.trace = cfg.Trace
			sh.byStatus = make(map[int]int64)
			sh.byCache = make(map[string]int64)
			sh.byJobState = make(map[string]int64)
			sh.byStage = make(map[string]StageTiming)
			sh.lat = make(map[string][]time.Duration)
			sh.urls = urls
			sh.affinity = cfg.Affinity
			sh.rr = uint64(w) // stagger shards so round-robin spreads instantly
			sh.nodeLat = make(map[string][]time.Duration)
			sh.nodeErr = make(map[string]int64)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for n := int64(0); ctx.Err() == nil; n++ {
				if rng.Float64() < cfg.JobFraction {
					sh.jobIteration(ctx, client, cfg, rng, w, n)
				} else {
					sh.syncIteration(ctx, client, cfg, rng, w, n)
				}
			}
		}(w)
	}
	wg.Wait()

	rep := &LoadReport{
		ByStatus:   make(map[int]int64),
		ByCache:    make(map[string]int64),
		ByEndpoint: make(map[string]EndpointLatency),
		ByJobState: make(map[string]int64),
		ByStage:    make(map[string]StageTiming),
		Elapsed:    time.Since(start),
	}
	var all []time.Duration
	perEndpoint := make(map[string][]time.Duration)
	perNode := make(map[string][]time.Duration)
	nodeErr := make(map[string]int64)
	for w := range shards {
		sh := &shards[w]
		rep.Requests += sh.requests
		rep.Errors += sh.errors
		rep.Retries += sh.retries
		for c, n := range sh.byStatus {
			rep.ByStatus[c] += n
		}
		for k, n := range sh.byCache {
			rep.ByCache[k] += n
		}
		for k, n := range sh.byJobState {
			rep.ByJobState[k] += n
		}
		for stage, st := range sh.byStage {
			agg := rep.ByStage[stage]
			agg.Count += st.Count
			agg.Total += st.Total
			rep.ByStage[stage] = agg
		}
		if sh.slowestDur > rep.SlowestDur {
			rep.SlowestDur, rep.SlowestTrace = sh.slowestDur, sh.slowestTrace
		}
		for e, lat := range sh.lat {
			perEndpoint[e] = append(perEndpoint[e], lat...)
			all = append(all, lat...)
		}
		for u, lat := range sh.nodeLat {
			perNode[u] = append(perNode[u], lat...)
		}
		for u, n := range sh.nodeErr {
			nodeErr[u] += n
		}
	}
	rep.P50, rep.P95, rep.P99, rep.Max = latencySummary(all)
	for e, lat := range perEndpoint {
		el := EndpointLatency{Requests: int64(len(lat))}
		el.P50, el.P95, el.P99, el.Max = latencySummary(lat)
		rep.ByEndpoint[e] = el
	}
	if len(urls) > 1 {
		rep.ByNode = make(map[string]NodeStats, len(urls))
		for _, u := range urls {
			lat := perNode[u]
			ns := NodeStats{Requests: int64(len(lat)), Errors: nodeErr[u]}
			ns.P50, ns.P95, ns.P99, ns.Max = latencySummary(lat)
			rep.ByNode[u] = ns
		}
	}
	return rep, nil
}

// latencySummary sorts the samples (in place) and extracts the
// percentile points.
func latencySummary(lat []time.Duration) (p50, p95, p99, max time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		return lat[int(p*float64(len(lat)-1))]
	}
	return pct(0.50), pct(0.95), pct(0.99), lat[len(lat)-1]
}
