// Package serve is the network-facing subsystem: it exposes the
// compiler and simulator as a concurrent HTTP/JSON service with a
// content-addressed compilation cache, request coalescing, bounded
// concurrency with load shedding, and Prometheus-format observability.
//
// The serving pipeline for POST /compile and POST /run:
//
//  1. The request is reduced to a content address — the SHA-256 of the
//     endpoint, the resolved optimizer options, the resolved machine
//     configuration, and the source (protocol.go).  Compilation and
//     simulation are deterministic, so the address fully determines
//     the success response, byte for byte.
//  2. The cache (cache.go) is consulted; a hit is served immediately
//     from the stored body (X-Cache: hit).
//  3. Concurrent identical misses are coalesced (singleflight.go):
//     one leader executes, everyone else shares its bytes (X-Cache:
//     coalesced).
//  4. The leader submits to a bounded worker pool (pool.go).  A full
//     queue sheds the request with 429 + Retry-After instead of
//     queueing without bound; the per-request deadline is plumbed as a
//     context.Context through wmstream.CompileContext and
//     RunWithTelemetryContext, so the optimizer pass loop and the
//     simulator engine loops abandon work whose requester has given
//     up.
//  5. Successful bodies enter the cache; every outcome feeds the
//     /metrics counters and the structured request log.
//
// The asynchronous job tier (jobs.go) shares the cache: a job looks up
// its /run content address at dispatch, completes from a stored body
// on a hit, and stores its own body after a successful execution.
//
// Every request is additionally traced end to end (internal/obs): a
// W3C traceparent is accepted inbound and a span tree — admission,
// queue wait, compile (with per-pass children), sim slices, journal
// writes — is retained in a bounded ring, browsable at /debug/traces
// and /debug/statusz, with per-stage timings echoed in a Server-Timing
// response header and the trace ID in X-WM-Trace-Id.
//
// In cluster mode (Config.Cluster) a routing decision precedes step 2:
// the content address is mapped through a consistent-hash ring to an
// owning node, and requests owned by a healthy peer are forwarded to
// it instead of executing locally — see forward.go for the peer
// protocol and internal/cluster for ring and membership.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wmstream"
	"wmstream/internal/cluster"
	"wmstream/internal/durable"
	"wmstream/internal/obs"
)

// Endpoint kinds; also the label values used in metrics.
const (
	kindCompile   = "compile"
	kindRun       = "run"
	kindJobs      = "jobs"
	kindJobPoll   = "jobs-poll"
	kindJobCancel = "jobs-cancel"
)

// Config configures a Server.  The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers bounds concurrent compilations/simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker; a submission
	// beyond it is shed with 429 (default 64).
	QueueDepth int
	// CacheBytes is the compilation cache budget (default 64 MiB;
	// <= 0 after defaulting disables caching).
	CacheBytes int64
	// RequestTimeout is the per-request execution deadline (default
	// 30s).
	RequestTimeout time.Duration
	// MaxSourceBytes bounds the source text (default 1 MiB).
	MaxSourceBytes int64
	// RetryAfter is advertised on 429 responses (default 1s).
	RetryAfter time.Duration
	// Logger receives structured request logs (default: discard).
	Logger *slog.Logger
	// Version is reported by /healthz.
	Version string
	// CompileHook, when non-nil, is called once per actual execution,
	// with the request's content address: a sync cache miss that
	// reaches a worker, or a job execution attempt.  Cache hits and
	// coalesced followers, sync or job, never call it.  Tests use it to
	// assert that coalescing and caching collapse N identical requests
	// into one compile.
	CompileHook func(key Key)

	// JobWorkers bounds concurrently executing asynchronous jobs
	// (default 2): the job tier gets its own small pool so long jobs
	// never starve synchronous traffic.
	JobWorkers int
	// JobBatch is how many queued jobs one job worker interleaves at a
	// time (default 1 — dedicated execution).  Above 1, a worker claims
	// up to JobBatch jobs and runs them on one shared admission gate:
	// simulation slices execute one at a time in FIFO rotation, so N
	// jobs progress together with the cache locality of sequential
	// execution.  Results are bit-identical either way; only host
	// scheduling changes.
	JobBatch int
	// JobQueueDepth bounds queued jobs across all tenants; a
	// submission beyond it is shed with 429 (default 32).
	JobQueueDepth int
	// JobTenantQueue bounds queued jobs per tenant (default 8), so one
	// tenant cannot occupy the whole queue.
	JobTenantQueue int
	// JobTimeout is the per-job execution wall-clock budget (default
	// 5m — jobs exist precisely to outlive RequestTimeout).
	JobTimeout time.Duration
	// JobTTL is how long a terminal job remains pollable before the
	// janitor deletes it (default 5m).
	JobTTL time.Duration
	// JobPollMax caps the long-poll wait of GET /jobs/{id} (default
	// 30s).
	JobPollMax time.Duration
	// JobProgressEvery is the minimum interval between progress
	// generation bumps of a running job (default 250ms).
	JobProgressEvery time.Duration

	// JobDir, when set, makes the job tier durable: every job state
	// transition is journaled under it (write-ahead, CRC-framed) and
	// running jobs spill periodic checkpoints, so acknowledged jobs
	// survive a process death and resume on the next boot.  Empty
	// keeps the tier memory-only.
	JobDir string
	// JobFsync selects the journal flush policy: "batch" (default,
	// sync on a short timer), "always" (sync every append), "never".
	JobFsync string
	// JobRetries caps transient-failure retries per job (default 3;
	// negative disables retries).
	JobRetries int
	// JobCheckpointEvery is the simulated-cycle interval between
	// checkpoint spills of a running job (default 5,000,000).
	JobCheckpointEvery int64
	// JobRetryBase is the first retry backoff delay (default 100ms);
	// later retries double it, capped at 64x, with jitter.
	JobRetryBase time.Duration
	// JobFaults injects journal/checkpoint write failures — the
	// crash-restart harness's hook.  Nil in production.
	JobFaults *durable.FaultPoints

	// Cluster, when non-nil, makes this node a member of a wmserved
	// cluster: synchronous requests whose content address hashes to a
	// healthy peer are forwarded to it (see forward.go for the peer
	// protocol and the decision table); requests this node owns — and
	// every forwarded request — run through the local pipeline.  The
	// caller owns the Cluster's probe-loop lifecycle (Start/Close).
	Cluster *cluster.Cluster

	// TraceRing caps the in-memory ring of completed request traces
	// (default 256; negative disables tracing entirely).
	TraceRing int
	// TraceSlowThreshold classifies a request as slow by its busy time
	// (duration minus intentional long-poll waits): slow traces bypass
	// head sampling into the tail-keep ring and increment
	// wmserved_slow_requests_total (default 500ms).
	TraceSlowThreshold time.Duration
	// TraceHeadRate keeps 1 in N ordinary completed traces (default 1:
	// keep all until the ring evicts them).  Slow and errored traces
	// are always kept.
	TraceHeadRate int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Version == "" {
		c.Version = "dev"
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobBatch <= 0 {
		c.JobBatch = 1
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 32
	}
	if c.JobTenantQueue <= 0 {
		c.JobTenantQueue = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 5 * time.Minute
	}
	if c.JobPollMax <= 0 {
		c.JobPollMax = 30 * time.Second
	}
	if c.JobProgressEvery <= 0 {
		c.JobProgressEvery = 250 * time.Millisecond
	}
	if c.JobRetries == 0 {
		c.JobRetries = 3
	} else if c.JobRetries < 0 {
		c.JobRetries = 0
	}
	if c.JobCheckpointEvery <= 0 {
		c.JobCheckpointEvery = 5_000_000
	}
	if c.JobRetryBase <= 0 {
		c.JobRetryBase = 100 * time.Millisecond
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.TraceSlowThreshold <= 0 {
		c.TraceSlowThreshold = 500 * time.Millisecond
	}
	if c.TraceHeadRate <= 0 {
		c.TraceHeadRate = 1
	}
	return c
}

// Server is the compile-and-run service.  It implements http.Handler;
// construct with New, shut down with Close.
type Server struct {
	cfg      Config
	cache    *Cache
	pool     *Pool
	jobs     *jobManager
	flights  flightGroup
	metrics  *metrics
	traces   *obs.Collector
	mux      *http.ServeMux
	start    time.Time
	base     context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	// drainCh closes when Drain is first called, waking long-polls so
	// they answer promptly instead of stalling the graceful shutdown.
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Every log line carrying a request context gains the trace/span
	// IDs, so logs correlate with /debug/traces without call-site
	// plumbing.
	cfg.Logger = slog.New(obs.WrapHandler(cfg.Logger.Handler()))
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheBytes),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(),
		traces: obs.NewCollector(obs.CollectorOptions{
			Ring:          cfg.TraceRing,
			HeadRate:      cfg.TraceHeadRate,
			SlowThreshold: cfg.TraceSlowThreshold,
		}),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		drainCh: make(chan struct{}),
	}
	s.base, s.cancel = context.WithCancel(context.Background())
	s.jobs = newJobManager(s)
	if cfg.JobDir != "" {
		// Recovery before workers: every journaled job is back in its
		// queue before anything can race it.
		s.jobs.openStore()
	}
	s.jobs.start()
	s.mux.HandleFunc("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		s.handleSync(w, r, kindCompile)
	})
	s.mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		s.handleSync(w, r, kindRun)
	})
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.traces.HandleIndex)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.traces.HandleGet)
	s.mux.HandleFunc("GET /debug/statusz", s.handleStatusz)
	return s
}

// startTrace begins (or, with an inbound traceparent, continues) a
// trace for the request and returns the request context carrying the
// root span.  With tracing disabled both returns are nil-safe no-ops.
func (s *Server) startTrace(r *http.Request, name string) (context.Context, *obs.Span) {
	if s.traces == nil {
		return r.Context(), nil
	}
	tid, parent, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		tid, parent = obs.TraceID{}, obs.SpanID{}
	}
	_, root := s.traces.Start(name, tid, parent)
	root.SetAttr("remote", r.RemoteAddr)
	return obs.ContextWith(r.Context(), root), root
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips /healthz to "draining" (503) so load balancers stop
// sending traffic, without yet refusing requests, and wakes every
// held-open job long-poll so GET /jobs/{id}?wait= answers promptly
// instead of stalling http.Server.Shutdown.  Called at the start of a
// graceful shutdown, before http.Server.Shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Close shuts the execution layer down: in-flight and queued work
// finishes (or is skipped once its deadline passes), new submissions
// fail with 503.  Call after the HTTP listener has stopped accepting.
func (s *Server) Close() {
	s.Drain()
	s.cancel()
	s.jobs.close()
	s.pool.Close()
}

// crash simulates kill -9 for the crash-restart harness: running
// simulations abort via the canceled base context, workers exit
// without journaling graceful-shutdown transitions (the harness has
// already wedged the store with fault injection, so attempted writes
// fail), and file handles are released so a fresh Server can recover
// from the same JobDir in-process.  Test-only by being unexported.
func (s *Server) crash() {
	s.Drain()
	s.cancel()
	s.jobs.crash()
	s.pool.Close()
}

// Recovery reports what boot-time journal replay reconstructed, plus
// the store's current mode ("durable", "degraded", "crashed", or
// "memory" when no JobDir is configured).
func (s *Server) Recovery() (RecoveryInfo, string) {
	mode := "memory"
	if st := s.jobs.store; st != nil {
		m, _ := st.Mode()
		mode = m.String()
	}
	return s.jobs.rec, mode
}

// handleSync fronts the synchronous /compile and /run endpoints: it
// decodes the request, lets the cluster layer (when configured) route
// it — local, forward to the owning peer, or degraded-local when the
// owner is down — and otherwise runs the local cache → coalesce →
// pool → execute pipeline.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request, kind string) {
	start := time.Now()
	ctx, root := s.startTrace(r, "POST /"+kind)
	r = r.WithContext(ctx)
	req, raw, errResp, status := s.decodeRequest(w, r)
	if errResp != nil {
		root.SetError(errResp.Error)
		s.finish(w, r, kind, start, status, mustJSON(errResp), "")
		return
	}

	// The execution budget: the configured per-request deadline, capped
	// by whatever deadline a forwarding front node propagated — the
	// client's clock keeps running while a request hops nodes.
	budget := s.cfg.RequestTimeout
	if dl, ok := parseDeadline(r.Header.Get(headerDeadline)); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
		}
	}

	key := req.cacheKey(kind)
	if cl := s.cfg.Cluster; cl != nil {
		w.Header().Set(headerNode, cl.Self())
		if from := r.Header.Get(headerForwarded); from != "" {
			// An internal forward: always executed here, never
			// re-forwarded, so routing is one hop and loop-free.
			root.SetAttr("peer", from)
			s.metrics.forwardedIn.add(fmt.Sprintf(`peer=%q`, from), 1)
		} else if rt := cl.Route(key[:]); !rt.Local {
			root.SetAttr("owner", rt.ID)
			if rt.Up {
				if fw, ok := s.forwardSync(r.Context(), kind, raw, rt, budget, root); ok {
					if fw.node != "" {
						w.Header().Set(headerNode, fw.node)
					}
					s.finish(w, r, kind, start, fw.status, fw.body, fw.cache)
					return
				}
			} else {
				s.metrics.forwards.add(fmt.Sprintf(`peer=%q,outcome=%q`, rt.ID, forwardDown), 1)
			}
			// Owner unreachable: serve locally so the cluster keeps
			// answering, marked degraded (the key is temporarily compiled
			// on more than one node; responses stay byte-identical because
			// they are a pure function of the content address).
			w.Header().Set(headerDegraded, "owner "+rt.ID+" down")
			root.SetAttr("degraded_owner", rt.ID)
		}
	}

	s.localSync(w, r, kind, start, key, req, budget)
}

// localSync is the node-local cache → coalesce → pool → execute
// pipeline.
func (s *Server) localSync(w http.ResponseWriter, r *http.Request, kind string, start time.Time, key Key, req *Request, budget time.Duration) {
	root := obs.FromContext(r.Context())
	lookup := root.StartChild("cache.lookup")
	body, ok := s.cache.Get(key)
	lookup.End()
	if ok {
		s.finish(w, r, kind, start, http.StatusOK, body, "hit")
		return
	}

	flightStart := time.Now()
	res, shared, leader := s.flights.Do(key, root.Trace().ID().String(), func() flightResult {
		// A flight on this key that finished after the lookup above
		// filled the cache before it was forgotten: answer from that
		// entry instead of executing the key a second time.
		if body, ok := s.cache.peek(key); ok {
			return flightResult{status: http.StatusOK, body: body, cached: true}
		}
		var fr flightResult
		ctx, cancel := context.WithTimeout(s.base, budget)
		defer cancel()
		// The leader executes under the server's base context (so a
		// client disconnect cannot poison coalesced followers) but
		// carries its own request trace.
		ctx = obs.ContextWith(ctx, root)
		qspan := root.StartChild("queue.wait")
		err := s.pool.Do(ctx, func(ctx context.Context) {
			qspan.End()
			fr = s.execute(ctx, kind, key, req)
		})
		qspan.EndErr(err) // no-op when the worker already ended it
		switch {
		case err == nil:
		case errors.Is(err, ErrOverloaded):
			s.metrics.shed.inc()
			fr = flightResult{
				status: http.StatusTooManyRequests,
				body:   mustJSON(&ErrorResponse{Error: "overloaded: request queue is full, retry later"}),
			}
		case errors.Is(err, ErrDraining):
			fr = flightResult{
				status: http.StatusServiceUnavailable,
				body:   mustJSON(&ErrorResponse{Error: "server is shutting down"}),
			}
		default: // deadline passed while queued
			fr = flightResult{
				status: http.StatusGatewayTimeout,
				body:   mustJSON(&ErrorResponse{Error: "deadline exceeded while queued: " + err.Error()}),
			}
		}
		if fr.status == http.StatusOK {
			// Filled inside the flight, so the key is always either in
			// flight or cached and a request arriving in between cannot
			// execute it again.
			fill := root.StartChild("cache.fill")
			s.cache.Put(key, fr.body)
			fill.End()
		}
		return fr
	})

	cacheState := "miss"
	switch {
	case shared:
		cacheState = "coalesced"
		s.metrics.coalesced.inc()
		// The leader's trace holds the execution spans; this trace
		// records only that it attached, and to whom.
		attach := root.AddChildAt("singleflight.attach", obs.KindService,
			flightStart, time.Since(flightStart))
		attach.SetAttr("leader_trace", leader)
	case res.cached:
		cacheState = "hit"
	}
	s.finish(w, r, kind, start, res.status, res.body, cacheState)
}

// decodeRequest parses and validates the body, also returning the raw
// bytes so a cluster forward can relay the request verbatim.  On
// failure it returns a non-nil error response plus its status.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, []byte, *ErrorResponse, int) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes+64<<10))
	if err != nil {
		return nil, nil, &ErrorResponse{Error: "reading body: " + err.Error()}, http.StatusRequestEntityTooLarge
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, &ErrorResponse{Error: "bad request JSON: " + err.Error()}, http.StatusBadRequest
	}
	if err := req.validate(s.cfg.MaxSourceBytes); err != nil {
		status := http.StatusBadRequest
		if int64(len(req.Source)) > s.cfg.MaxSourceBytes {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, nil, &ErrorResponse{Error: err.Error()}, status
	}
	return &req, body, nil, 0
}

// runOutcome is the result of one compile(-and-run) execution in a
// structured form both the synchronous handlers (which render it to
// bytes) and the job tier (which stores it) consume.
type runOutcome struct {
	status  int
	run     *RunResponse
	comp    *CompileResponse
	errResp *ErrorResponse
	// resumeErr marks a run that never started because its
	// SimOptions.ResumeState would not restore; the job tier treats it
	// as transient (drop the candidate, retry).
	resumeErr error
}

// body renders the outcome deterministically: identical requests
// produce identical bytes whether served cold, from the cache, or by
// coalescing.
func (o runOutcome) body() []byte {
	switch {
	case o.run != nil:
		return mustJSON(o.run)
	case o.comp != nil:
		return mustJSON(o.comp)
	default:
		return mustJSON(o.errResp)
	}
}

// execute adapts perform for the synchronous pipeline.  The
// handler-local wall budget is the context deadline, delegated to the
// execution core (internal/exec) as a MaxWall budget rather than
// enforced here.
func (s *Server) execute(ctx context.Context, kind string, key Key, req *Request) flightResult {
	if h := s.cfg.CompileHook; h != nil {
		h(key)
	}
	var simOpts wmstream.SimOptions
	if dl, ok := ctx.Deadline(); ok {
		simOpts.MaxWall = time.Until(dl)
	}
	out := s.perform(ctx, kind, req, simOpts)
	return flightResult{status: out.status, body: out.body()}
}

// perform compiles (and for run kinds simulates) the request under
// ctx.  Simulation runs through the shared execution core via
// wmstream.RunWithTelemetryContext with the given SimOptions — the
// job tier passes progress callbacks and its own wall budget here.
func (s *Server) perform(ctx context.Context, kind string, req *Request, simOpts wmstream.SimOptions) runOutcome {
	s.metrics.compiles.add(fmt.Sprintf("level=%q", req.levelLabel()), 1)

	cctx, csp := obs.StartSpan(ctx, "compile")
	csp.SetKind(obs.KindCompile)
	csp.SetAttr("level", req.levelLabel())
	cres, err := wmstream.CompileContext(cctx, req.Source, wmstream.CompileConfig{Options: req.options()})
	bridgePassSpans(csp, cres.Stats)
	csp.EndErr(err)
	diags := toWireDiags(cres.Diagnostics)
	if err != nil {
		if ctx.Err() != nil {
			return timeoutOutcome(ctx)
		}
		return runOutcome{
			status:  http.StatusBadRequest,
			errResp: &ErrorResponse{Error: "compile: " + err.Error(), Diagnostics: diags},
		}
	}
	listing := cres.Program.ListingDebug()
	if kind == kindCompile {
		return runOutcome{
			status: http.StatusOK,
			comp:   &CompileResponse{Listing: listing, Diagnostics: diags},
		}
	}

	sctx, ssp := obs.StartSpan(ctx, "sim")
	machine := req.machine()
	sres, err := wmstream.RunWithTelemetryContext(sctx, cres.Program, machine, simOpts)
	ssp.SetAttrInt("cycles", sres.Cycles)
	ssp.SetUnits(toUnitCycles(sres.Units))
	ssp.EndErr(err)
	s.metrics.addSimUnits(sres.Units)
	s.metrics.observeEngineRun(machine.Engine)
	if err != nil {
		if ctx.Err() != nil {
			return timeoutOutcome(ctx)
		}
		var re *wmstream.ResumeError
		if errors.As(err, &re) {
			// The checkpoint would not restore: no cycle simulated.  Not
			// a property of the program — the caller retries with an
			// older candidate or a clean start.
			return runOutcome{
				status:    http.StatusInternalServerError,
				resumeErr: re,
				errResp:   &ErrorResponse{Error: "resume: " + err.Error()},
			}
		}
		var wb *wmstream.WallBudgetError
		if errors.As(err, &wb) {
			// Deterministic body: the elapsed/cycle details vary run to
			// run and must not reach coalesced followers.
			return runOutcome{
				status:  http.StatusGatewayTimeout,
				errResp: &ErrorResponse{Error: "request deadline exceeded: simulation wall-clock budget exhausted"},
			}
		}
		// A deadlock or trap is a property of the (valid) program, not
		// of the server: 422 with the simulator's diagnostic.
		return runOutcome{
			status:  http.StatusUnprocessableEntity,
			errResp: &ErrorResponse{Error: "run: " + err.Error(), Diagnostics: diags},
		}
	}
	return runOutcome{
		status: http.StatusOK,
		run: &RunResponse{
			Listing:      listing,
			Diagnostics:  diags,
			Cycles:       sres.Cycles,
			Instructions: sres.Instructions,
			MemReads:     sres.MemReads,
			MemWrites:    sres.MemWrites,
			StreamElems:  sres.StreamElems,
			Output:       sres.Output,
		},
	}
}

// bridgePassSpans synthesizes per-pass compile child spans from the
// compiler's pass statistics, laid end to end from the compile span's
// start.  Pass times are summed across parallel optimizer workers, so
// the bridged row can extend past the compile span's wall time; the
// relative pass widths are what the timeline is for.
func bridgePassSpans(csp *obs.Span, stats *wmstream.CompileStats) {
	if csp == nil || stats == nil {
		return
	}
	at := csp.StartTime()
	for _, ps := range stats.Passes {
		sp := csp.AddChildAt("pass:"+ps.Name, obs.KindCompile, at, ps.Time)
		sp.SetAttrInt("fires", int64(ps.Fires))
		at = at.Add(ps.Time)
	}
}

// toUnitCycles converts the simulator's per-unit breakdown into the
// span attachment form, with stall causes in deterministic order.
func toUnitCycles(units []wmstream.UnitBreakdown) []obs.UnitCycles {
	if len(units) == 0 {
		return nil
	}
	out := make([]obs.UnitCycles, 0, len(units))
	for _, u := range units {
		uc := obs.UnitCycles{Unit: u.Unit, Issued: u.Issued, Idle: u.Idle}
		causes := make([]string, 0, len(u.Stalls))
		for c := range u.Stalls {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			uc.Stalls = append(uc.Stalls, obs.CauseCycles{Cause: c, Cycles: u.Stalls[c]})
		}
		out = append(out, uc)
	}
	return out
}

func timeoutOutcome(ctx context.Context) runOutcome {
	return runOutcome{
		status:  http.StatusGatewayTimeout,
		errResp: &ErrorResponse{Error: "request deadline exceeded: " + ctx.Err().Error()},
	}
}

// finish writes the response, records metrics, and emits the request
// log line.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, kind string, start time.Time, status int, body []byte, cacheState string) {
	s.finishWait(w, r, kind, start, 0, status, body, cacheState)
}

// finishWait is finish for endpoints that park intentionally (the job
// long-poll): waited is excluded from the endpoint latency histogram —
// a client asking to wait 30s is not a 30s-slow server — and recorded
// in its own wait histogram instead.  The busy remainder also drives
// slow-request classification.
func (s *Server) finishWait(w http.ResponseWriter, r *http.Request, kind string, start time.Time, waited time.Duration, status int, body []byte, cacheState string) {
	dur := time.Since(start)
	busy := dur - waited
	if busy < 0 {
		busy = 0
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if cacheState != "" {
		h.Set("X-Cache", cacheState)
	}
	if status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}

	sp := obs.FromContext(r.Context())
	var traceID string
	if sp != nil {
		tr := sp.Trace()
		traceID = tr.ID().String()
		h.Set("X-WM-Trace-Id", traceID)
		h.Set("Traceparent", obs.FormatTraceparent(tr.ID(), sp.ID(), true))
		if st := serverTiming(tr, dur, cacheState); st != "" {
			h.Set("Server-Timing", st)
		}
		sp.SetAttrInt("status", int64(status))
		if cacheState != "" {
			sp.SetAttr("cache", cacheState)
		}
		if waited > 0 {
			sp.SetAttrInt("waited_us", waited.Microseconds())
		}
		if status >= http.StatusInternalServerError {
			sp.SetError(http.StatusText(status))
		}
	}
	w.WriteHeader(status)
	w.Write(body)

	s.metrics.observeRequest(kind, status, busy.Seconds())
	if waited > 0 {
		s.metrics.observeWait(kind, waited.Seconds())
	}
	if busy >= s.cfg.TraceSlowThreshold {
		s.metrics.observeSlow(kind, traceID)
	}
	s.cfg.Logger.InfoContext(r.Context(), "request",
		"endpoint", kind,
		"status", status,
		"cache", cacheState,
		"dur_ms", float64(dur.Microseconds())/1000,
		"busy_ms", float64(busy.Microseconds())/1000,
		"bytes", len(body),
		"remote", r.RemoteAddr,
	)
	if sp != nil {
		sp.End()
		if sp.IsRoot() {
			// Handler spans that are children of a longer-lived job trace
			// end here but leave the trace to the job's terminal
			// transition.
			tr := sp.Trace()
			tr.SetBusy(busy)
			tr.Finish()
		}
	}
}

// timingStages maps span names to the Server-Timing metric names
// reported per request, in render order.
var timingStages = []struct{ span, metric string }{
	{"queue.wait", "queue"},
	{"singleflight.attach", "coalesce"},
	{"compile", "compile"},
	{"sim", "sim"},
	{"journal.append", "journal"},
	{"checkpoint.write", "checkpoint"},
}

// serverTiming renders the trace's per-stage breakdown as a
// Server-Timing header value (RFC 8941 style, dur in milliseconds).
func serverTiming(tr *obs.Trace, total time.Duration, cacheState string) string {
	durs := tr.DurationsByName()
	parts := make([]string, 0, len(timingStages)+2)
	if cacheState != "" {
		parts = append(parts, "cache;desc="+strconv.Quote(cacheState))
	}
	for _, st := range timingStages {
		if d, ok := durs[st.span]; ok {
			parts = append(parts, fmt.Sprintf("%s;dur=%.3f", st.metric, float64(d.Microseconds())/1000))
		}
	}
	parts = append(parts, fmt.Sprintf("total;dur=%.3f", float64(total.Microseconds())/1000))
	return strings.Join(parts, ", ")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	jobs := &JobsHealth{JournalMode: "memory", Recovery: s.jobs.rec}
	if st := s.jobs.store; st != nil {
		mode, reason := st.Mode()
		jobs.JournalMode = mode.String()
		jobs.JournalReason = reason
		jobs.JournalBytes = st.Bytes()
		jobs.DroppedWrites = st.DroppedWrites()
	} else if s.jobs.storeErr != "" {
		jobs.JournalMode = "degraded"
		jobs.JournalReason = s.jobs.storeErr
	}
	resp := &HealthResponse{
		Status:        status,
		Version:       s.cfg.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
		QueueDepth:    s.pool.QueueDepth(),
		InFlight:      s.pool.InFlight(),
		Cache:         s.cache.Stats(),
		Jobs:          jobs,
	}
	if cl := s.cfg.Cluster; cl != nil {
		snap := cl.Snapshot()
		resp.Cluster = &snap
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(mustJSON(resp))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	jq, jr, jh := s.jobs.counts()
	g := gauges{
		queueDepth:  s.pool.QueueDepth(),
		inFlight:    s.pool.InFlight(),
		workers:     s.pool.Workers(),
		cache:       s.cache.Stats(),
		uptime:      time.Since(s.start).Seconds(),
		jobsQueued:  jq,
		jobsRunning: jr,
		jobsHeld:    jh,
		journalMode: "memory",
	}
	if st := s.jobs.store; st != nil {
		mode, _ := st.Mode()
		g.journalMode = mode.String()
		g.journalBytes = st.Bytes()
		g.journalDropped = st.DroppedWrites()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.goroutines = runtime.NumGoroutine()
	g.heapBytes = ms.HeapAlloc
	g.gcPauseTotal = float64(ms.PauseTotalNs) / 1e9
	g.openFDs = openFDCount()
	g.traces = s.traces.Stats()
	g.transCache = wmstream.TranslationCacheStats()
	if cl := s.cfg.Cluster; cl != nil {
		snap := cl.Snapshot()
		g.cluster = &snap
	}
	s.metrics.write(w, g)
}

// mustJSON marshals a response struct.  Marshaling these types cannot
// fail; the panic guards against a refactor introducing one that can.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: marshaling %T: %v", v, err))
	}
	return append(b, '\n')
}
