package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wmstream"
	"wmstream/internal/durable"
	"wmstream/internal/obs"
)

// The asynchronous job tier: POST /jobs accepts a /run request and
// returns immediately with a job ID; GET /jobs/{id} long-polls the
// job's progress generation; DELETE /jobs/{id} cancels (or, for a
// terminal job, deletes) it.  Jobs exist for simulations that outlive
// the synchronous RequestTimeout: they run on their own small worker
// pool under the JobTimeout wall budget, report periodic progress
// snapshots from the execution core, and keep their terminal result
// pollable for JobTTL before a janitor reclaims them.
//
// Scheduling is fair across tenants: each tenant has its own FIFO and
// the dispatcher round-robins over tenants with pending work, so one
// tenant queueing many jobs cannot starve another's first.  Admission
// is bounded twice — a total queue cap (JobQueueDepth) and a per-tenant
// cap (JobTenantQueue) — and over-cap submissions are shed with 429,
// reusing the synchronous tier's load-shedding discipline.

// Job queue admission errors; both unwrap to ErrOverloaded so callers
// can treat them as shed.
var (
	errJobQueueFull    = fmt.Errorf("%w: job queue is full", ErrOverloaded)
	errTenantQueueFull = fmt.Errorf("%w: tenant job queue is full", ErrOverloaded)
)

// jobState is the job lifecycle: queued → running → done|failed|canceled
// (queued jobs may also go directly to canceled).
type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCanceled
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	default:
		return "canceled"
	}
}

// terminal reports whether the state is final (result retained until
// TTL expiry).
func (s jobState) terminal() bool { return s >= jobDone }

// job is one asynchronous run.  Lock ordering: jobManager.mu before
// job.mu; job.mu alone is enough for state reads and progress updates.
type job struct {
	id     string
	tenant string
	req    *Request
	seq    int64 // submission order, preserved across restarts

	mu    sync.Mutex
	state jobState
	// attempt counts transient-failure retries consumed; resume and
	// resumePrev are the newest and second-newest durable checkpoints
	// (tried in that order, then a clean start).
	attempt    int
	resume     *durable.CheckpointRef
	resumePrev *durable.CheckpointRef
	// gen increments on every observable change; changed is closed and
	// replaced at the same moment, so a poller holding (gen, changed)
	// wakes exactly when a newer generation exists.
	gen      int64
	changed  chan struct{}
	progress *JobProgress
	result   *RunResponse
	errMsg   string
	diags    []Diagnostic
	// cancel aborts the running simulation; cancelRequested marks a
	// cancel that arrived before the worker observed it.
	cancel          context.CancelFunc
	cancelRequested bool
	expires         time.Time // terminal states only: TTL deadline

	// trace is the job's end-to-end trace: opened at submission (under
	// the submit request's trace ID, so one trace covers POST /jobs
	// through the terminal state), finished at the terminal transition.
	// root is its "job" root span; qspan is the open queue-wait span
	// between enqueue and dispatch.  All nil when tracing is disabled.
	trace *obs.Trace
	root  *obs.Span
	qspan *obs.Span
}

// bumpLocked publishes a new generation.  Caller holds j.mu.
func (j *job) bumpLocked() {
	j.gen++
	close(j.changed)
	j.changed = make(chan struct{})
}

// update applies f under the job lock and publishes a generation bump.
func (j *job) update(f func()) {
	j.mu.Lock()
	f()
	j.bumpLocked()
	j.mu.Unlock()
}

// responseLocked renders the wire form.  Caller holds j.mu.
func (j *job) responseLocked(now time.Time) *JobResponse {
	resp := &JobResponse{
		ID:          j.id,
		State:       j.state.String(),
		Gen:         j.gen,
		Tenant:      j.tenant,
		Attempts:    j.attempt,
		Result:      j.result,
		Error:       j.errMsg,
		Diagnostics: j.diags,
	}
	if j.progress != nil {
		p := *j.progress
		resp.Progress = &p
	}
	if j.trace != nil {
		resp.TraceID = j.trace.ID().String()
	}
	if j.state.terminal() && !j.expires.IsZero() {
		if d := j.expires.Sub(now); d > 0 {
			resp.ExpiresInSeconds = d.Seconds()
		}
	}
	return resp
}

func (j *job) response(now time.Time) *JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.responseLocked(now)
}

// poll returns the current wire form plus the generation and the
// channel that closes on the next change, atomically.
func (j *job) poll(now time.Time) (*JobResponse, int64, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.responseLocked(now), j.gen, j.changed
}

// jobManager owns the job table, the per-tenant queues, the worker
// pool, and the TTL janitor.
type jobManager struct {
	srv *Server
	cfg Config

	mu      sync.Mutex
	closed  bool
	byID    map[string]*job
	pending map[string][]*job // tenant -> FIFO of queued jobs
	order   []string          // round-robin ring of tenants with pending work
	next    int               // ring cursor
	queued  int
	running int
	seq     int64 // last issued submission sequence (recovered from the journal)

	// store is the durable journal (nil: memory-only); rec reports
	// what boot-time recovery reconstructed; storeErr is why opening
	// the store failed, when it did.
	store    *durable.Store
	rec      RecoveryInfo
	storeErr string

	notify chan struct{} // buffered(1) work signal; workers re-scan until empty
	done   chan struct{}
	wg     sync.WaitGroup
}

// newJobManager builds the manager without starting it; the server
// runs recovery (openStore) first, then start, so every recovered job
// is enqueued before any worker looks for work.
func newJobManager(s *Server) *jobManager {
	return &jobManager{
		srv:     s,
		cfg:     s.cfg,
		byID:    make(map[string]*job),
		pending: make(map[string][]*job),
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

func (jm *jobManager) start() {
	jm.wg.Add(jm.cfg.JobWorkers + 1)
	for range jm.cfg.JobWorkers {
		go jm.worker()
	}
	go jm.janitor()
}

// submit admits a job or sheds it.  The returned job is already
// visible to GET /jobs/{id}.  tr/root, when non-nil, become the job's
// end-to-end trace; the job takes ownership (finished at the terminal
// transition) only on successful admission.
func (jm *jobManager) submit(req *JobRequest, tr *obs.Trace, root *obs.Span) (*job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return nil, ErrDraining
	}
	if jm.queued >= jm.cfg.JobQueueDepth {
		return nil, errJobQueueFull
	}
	if len(jm.pending[req.Tenant]) >= jm.cfg.JobTenantQueue {
		return nil, errTenantQueueFull
	}
	j := &job{
		id:      newJobID(),
		tenant:  req.Tenant,
		req:     &req.Request,
		seq:     jm.seq + 1,
		state:   jobQueued,
		changed: make(chan struct{}),
		trace:   tr,
		root:    root,
	}
	root.SetAttr("job_id", j.id)
	if j.tenant != "" {
		root.SetAttr("tenant", j.tenant)
	}
	// Journal before the job becomes visible: the 202 acknowledgement
	// implies the job survives a crash, so a record that cannot be
	// written (ErrCrashed under fault injection) must fail the submit
	// — no acknowledgement, no obligation.
	j.mu.Lock()
	rec := jm.recordLocked(j)
	j.mu.Unlock()
	jsp := root.StartChild("journal.append")
	jsp.SetAttr("state", "queued")
	if err := jm.put(rec); err != nil {
		jsp.EndErr(err)
		j.trace, j.root = nil, nil
		return nil, err
	}
	jsp.End()
	jm.seq = j.seq
	jm.byID[j.id] = j
	jm.enqueueLocked(j)
	j.qspan = root.StartChild("queue.wait")
	select {
	case jm.notify <- struct{}{}:
	default:
	}
	return j, nil
}

func (jm *jobManager) get(id string) *job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.byID[id]
}

// counts reports the queue gauges for /metrics.
func (jm *jobManager) counts() (queued, running, held int) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.queued, jm.running, len(jm.byID)
}

// popLocked dequeues the next job round-robin across tenants.  Caller
// holds jm.mu.  Every queued entry is live (cancel removes eagerly),
// so any non-empty tenant yields a job; drained tenants fall out of
// the ring.
func (jm *jobManager) popLocked() *job {
	for len(jm.order) > 0 {
		if jm.next >= len(jm.order) {
			jm.next = 0
		}
		t := jm.order[jm.next]
		q := jm.pending[t]
		if len(q) == 0 {
			jm.order = append(jm.order[:jm.next], jm.order[jm.next+1:]...)
			delete(jm.pending, t)
			continue
		}
		j := q[0]
		if len(q) == 1 {
			delete(jm.pending, t)
			jm.order = append(jm.order[:jm.next], jm.order[jm.next+1:]...)
		} else {
			jm.pending[t] = q[1:]
			jm.next++
		}
		return j
	}
	return nil
}

// removePendingLocked takes a still-queued job out of its tenant FIFO.
// Returns false if a worker already claimed it.  Caller holds jm.mu.
func (jm *jobManager) removePendingLocked(j *job) bool {
	q := jm.pending[j.tenant]
	for n, p := range q {
		if p == j {
			jm.pending[j.tenant] = append(q[:n:n], q[n+1:]...)
			return true
		}
	}
	return false
}

// worker drains the queue: claim up to JobBatch jobs, run them, repeat;
// sleep on the notify signal when empty.
func (jm *jobManager) worker() {
	defer jm.wg.Done()
	batch := jm.cfg.JobBatch
	if batch < 1 {
		batch = 1
	}
	for {
		jm.mu.Lock()
		var claimed []*job
		for len(claimed) < batch {
			j := jm.popLocked()
			if j == nil {
				break
			}
			jm.queued--
			jm.running++
			claimed = append(claimed, j)
		}
		if len(claimed) > 0 {
			jm.mu.Unlock()
			jm.runClaimed(claimed)
			jm.mu.Lock()
			jm.running -= len(claimed)
		}
		closed := jm.closed
		jm.mu.Unlock()
		if len(claimed) > 0 {
			continue
		}
		if closed {
			return
		}
		select {
		case <-jm.notify:
		case <-jm.done:
			return
		}
	}
}

// runClaimed executes one worker's claimed jobs.  A single job runs
// inline with no gate — the dedicated path is unchanged.  Several run
// as a batch: one goroutine each, simulation slices serialized on a
// shared admission gate in FIFO rotation, so the worker interleaves N
// jobs while still consuming roughly one core (internal/exec batch
// mode).  Per-job progress, checkpoints, and cancellation all keep
// working — they live between slices.
func (jm *jobManager) runClaimed(js []*job) {
	if len(js) == 1 {
		jm.runJob(js[0], nil)
		return
	}
	gate := wmstream.NewBatchGate()
	var wg sync.WaitGroup
	for _, j := range js {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jm.runJob(j, gate)
		}()
	}
	wg.Wait()
}

// runJob executes one job through the shared perform pipeline, feeding
// the execution core's progress snapshots into the job's generation
// stream.  The response cache sits in front of execution: a job whose
// content address an earlier job or sync /run already answered
// completes from the stored body without compiling or simulating, and
// a job that executes to a 200 result fills the cache for both tiers.
// With a durable store, the run checkpoints periodically and transient
// failures (a checkpoint that no longer verifies) retry with backoff,
// falling back candidate by candidate to a clean start.  A non-nil
// gate serializes this job's slices with its batchmates.
func (jm *jobManager) runJob(j *job, gate wmstream.BatchGate) {
	ctx, cancel := context.WithTimeout(jm.srv.base, jm.cfg.JobTimeout)
	defer cancel()

	var rec durable.JobRecord
	var runSpan *obs.Span
	j.mu.Lock()
	j.qspan.End()
	j.qspan = nil
	if j.cancelRequested {
		j.state = jobCanceled
		j.expires = time.Now().Add(jm.cfg.JobTTL)
		jm.settleLocked(j)
		j.mu.Unlock()
		jm.srv.metrics.jobs.add(`event="canceled"`, 1)
		return
	}
	j.state = jobRunning
	j.cancel = cancel
	runSpan = j.root.StartChild("run")
	rec = jm.recordLocked(j)
	j.bumpLocked()
	j.mu.Unlock()
	jm.putTraced(j, rec, rec.State)
	// The run span carries the execution through the shared pipeline:
	// compile passes, sim slices, and checkpoint spills all become its
	// children via the context.
	ctx = obs.ContextWith(ctx, runSpan)

	key := j.req.cacheKey(kindRun)
	out, hit := jm.cached(j, runSpan, key)
	for !hit {
		out = jm.runOnce(ctx, j, gate, key)
		if out.resumeErr == nil || !jm.retryWait(j) {
			break
		}
	}

	var body []byte
	if !hit && out.status == http.StatusOK && out.run != nil {
		body = out.body()
	}
	var event string
	var dropRefs []*durable.CheckpointRef
	j.mu.Lock()
	j.cancel = nil
	switch {
	case j.cancelRequested:
		j.state = jobCanceled
		event = `event="canceled"`
	case jm.srv.base.Err() != nil:
		// Server shutdown, not user cancellation.  With a journal the
		// job goes back to queued — the final checkpoint taken on
		// cancellation (or the last periodic one) resumes it on the next
		// boot.  Memory-only, it can only be canceled.
		if jm.store != nil {
			j.state = jobQueued
			event = `event="requeued"`
		} else {
			j.state = jobCanceled
			event = `event="canceled"`
		}
	case out.status == http.StatusOK && out.run != nil:
		j.state = jobDone
		j.result = out.run
		event = `event="completed"`
		if body != nil {
			// Filled before the done generation is published, so a
			// client that sees done finds the entry.
			jm.srv.cache.Put(key, body)
		}
	default:
		j.state = jobFailed
		if out.errResp != nil {
			j.errMsg = out.errResp.Error
			j.diags = out.errResp.Diagnostics
		} else {
			j.errMsg = fmt.Sprintf("unexpected outcome (status %d)", out.status)
		}
		event = `event="failed"`
		runSpan.SetError(j.errMsg)
	}
	runSpan.SetAttrInt("attempts", int64(j.attempt))
	runSpan.End()
	if j.state.terminal() {
		j.expires = time.Now().Add(jm.cfg.JobTTL)
		dropRefs = append(dropRefs, j.resume, j.resumePrev)
		j.resume, j.resumePrev = nil, nil
		jm.settleLocked(j)
		j.mu.Unlock()
	} else {
		rec = jm.recordLocked(j)
		j.bumpLocked()
		j.mu.Unlock()
		jm.putTraced(j, rec, rec.State)
	}
	jm.removeRefs(dropRefs...)
	jm.srv.metrics.jobs.add(event, 1)
}

// cached looks the job's content address up in the response cache and
// decodes a stored /run body into the job's result.  The stored bytes
// are exactly what a cold run renders, so a hit is indistinguishable
// from an execution except that it carries no progress.
func (jm *jobManager) cached(j *job, runSpan *obs.Span, key Key) (runOutcome, bool) {
	sp := runSpan.StartChild("cache.lookup")
	body, ok := jm.srv.cache.Get(key)
	var res RunResponse
	if ok && json.Unmarshal(body, &res) != nil {
		ok = false
	}
	sp.End()
	if !ok {
		j.root.SetAttr("cache", "miss")
		return runOutcome{}, false
	}
	j.root.SetAttr("cache", "hit")
	jm.srv.metrics.jobs.add(`event="cache_hit"`, 1)
	return runOutcome{status: http.StatusOK, run: &res}, true
}

// putTraced journals one record with a journal.append child span on
// the job's trace, so WAL writes show up on the job timeline.
func (jm *jobManager) putTraced(j *job, rec durable.JobRecord, state string) error {
	sp := j.root.StartChild("journal.append")
	sp.SetAttr("state", state)
	err := jm.put(rec)
	sp.EndErr(err)
	return err
}

// settleLocked publishes a terminal state the job has just entered:
// journal the record, close the end-to-end trace, and only then bump
// the generation.  Pollers read state under j.mu, so none sees the
// terminal state before its trace is finished.  Caller holds j.mu.
func (jm *jobManager) settleLocked(j *job) {
	rec := jm.recordLocked(j)
	jm.putTraced(j, rec, rec.State)
	if j.trace != nil {
		j.root.SetAttr("state", rec.State)
		j.trace.Finish()
	}
	j.bumpLocked()
}

// runOnce is one attempt: load the best resume candidate, run through
// perform with checkpointing wired, and on a resume failure drop the
// candidate so the next attempt falls back.
func (jm *jobManager) runOnce(ctx context.Context, j *job, gate wmstream.BatchGate, key Key) runOutcome {
	opts := wmstream.SimOptions{
		MaxWall:       jm.cfg.JobTimeout,
		ProgressEvery: jm.cfg.JobProgressEvery,
		Gate:          gate,
		Progress: func(p wmstream.RunProgress) {
			j.update(func() {
				j.progress = &JobProgress{
					Cycles:         p.Cycles,
					Instructions:   p.Instructions,
					MemReads:       p.MemReads,
					MemWrites:      p.MemWrites,
					StreamElems:    p.StreamElems,
					ElapsedSeconds: p.Elapsed.Seconds(),
				}
			})
		},
	}
	if jm.store != nil {
		opts.ResumeState = jm.loadResume(j)
		opts.CheckpointEvery = jm.cfg.JobCheckpointEvery
		opts.FinalCheckpoint = true
		opts.OnCheckpoint = func(state []byte, p wmstream.RunProgress) error {
			jm.spill(j, state, p)
			return nil // a failed spill degrades; it never aborts the run
		}
	}
	if h := jm.cfg.CompileHook; h != nil {
		h(key)
	}
	out := jm.srv.perform(ctx, kindRun, j.req, opts)
	if out.resumeErr != nil {
		// The blob passed its content hash but would not decode into
		// the machine (e.g. a config drift): discard the candidate and
		// charge one retry.
		jm.cfg.Logger.Warn("jobs: checkpoint resume failed; discarding candidate",
			"job", j.id, "err", out.resumeErr)
		jm.srv.metrics.jobs.add(`event="resume_failed"`, 1)
		jm.dropResume(j)
		j.update(func() { j.attempt++ })
	}
	return out
}

// cancelJob implements DELETE semantics per state: terminal jobs are
// deleted immediately, queued jobs flip to canceled, running jobs get
// their context canceled (the state transition lands when the worker
// observes it).  Returns the job's wire form after the action.
func (jm *jobManager) cancelJob(j *job) *JobResponse {
	now := time.Now()
	var tomb *durable.JobRecord
	var dropRefs []*durable.CheckpointRef
	defer func() {
		// Journal deletes outside the locks, as tombstones.
		if tomb != nil {
			jm.put(*tomb)
			jm.removeRefs(dropRefs...)
		}
	}()
	jm.mu.Lock()
	j.mu.Lock()
	switch {
	case j.state.terminal():
		delete(jm.byID, j.id)
		resp := j.responseLocked(now)
		resp.ExpiresInSeconds = 0 // deleted now, not at TTL
		tomb = &durable.JobRecord{Seq: j.seq, ID: j.id, State: "deleted"}
		dropRefs = append(dropRefs, j.resume, j.resumePrev)
		j.mu.Unlock()
		jm.mu.Unlock()
		return resp
	case j.state == jobQueued:
		if jm.removePendingLocked(j) {
			jm.queued--
			j.state = jobCanceled
			j.expires = now.Add(jm.cfg.JobTTL)
			j.qspan.SetAttr("outcome", "canceled")
			j.qspan.End()
			j.qspan = nil
			jm.settleLocked(j)
			jm.srv.metrics.jobs.add(`event="canceled"`, 1)
		} else {
			// A worker claimed it between our lookup and now; it will
			// observe the flag before (or right after) starting.
			j.cancelRequested = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	default: // running
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	resp := j.responseLocked(now)
	j.mu.Unlock()
	jm.mu.Unlock()
	return resp
}

// close stops admission and waits for workers (whose running jobs
// have already had their base context canceled by Server.Close) and
// the janitor to exit.  Memory-only, still-queued jobs are canceled —
// there is nowhere for them to survive; with a journal they stay
// "queued" both in memory and on disk, and the next boot re-admits
// them with their original tenants and order.
func (jm *jobManager) close() {
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return
	}
	jm.closed = true
	now := time.Now()
	if jm.store == nil {
		for _, q := range jm.pending {
			for _, j := range q {
				j.mu.Lock()
				j.state = jobCanceled
				j.expires = now.Add(jm.cfg.JobTTL)
				jm.settleLocked(j)
				j.mu.Unlock()
				jm.srv.metrics.jobs.add(`event="canceled"`, 1)
			}
		}
	}
	jm.pending = make(map[string][]*job)
	jm.order = nil
	jm.queued = 0
	close(jm.done)
	jm.mu.Unlock()
	jm.wg.Wait()
	if jm.store != nil {
		jm.store.Close()
	}
}

// janitor deletes terminal jobs whose TTL has passed, so abandoned
// results do not accumulate.
func (jm *jobManager) janitor() {
	defer jm.wg.Done()
	interval := jm.cfg.JobTTL / 4
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-jm.done:
			return
		case now := <-t.C:
			jm.sweep(now)
		}
	}
}

func (jm *jobManager) sweep(now time.Time) {
	var expired int64
	var tombs []durable.JobRecord
	var dropRefs []*durable.CheckpointRef
	jm.mu.Lock()
	for id, j := range jm.byID {
		j.mu.Lock()
		if j.state.terminal() && now.After(j.expires) {
			delete(jm.byID, id)
			tombs = append(tombs, durable.JobRecord{Seq: j.seq, ID: j.id, State: "deleted"})
			dropRefs = append(dropRefs, j.resume, j.resumePrev)
			expired++
		}
		j.mu.Unlock()
	}
	jm.mu.Unlock()
	for _, t := range tombs {
		jm.put(t)
	}
	jm.removeRefs(dropRefs...)
	if expired > 0 {
		jm.srv.metrics.jobs.add(`event="expired"`, expired)
	}
}

// newJobID returns a random 64-bit hex ID.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: reading random job id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// decodeJobRequest parses and validates a POST /jobs body (a /run
// request plus tenant metadata).
func (s *Server) decodeJobRequest(w http.ResponseWriter, r *http.Request) (*JobRequest, *ErrorResponse, int) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxSourceBytes+64<<10))
	if err != nil {
		return nil, &ErrorResponse{Error: "reading body: " + err.Error()}, http.StatusRequestEntityTooLarge
	}
	var req JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &ErrorResponse{Error: "bad request JSON: " + err.Error()}, http.StatusBadRequest
	}
	if err := req.validate(s.cfg.MaxSourceBytes); err != nil {
		status := http.StatusBadRequest
		if int64(len(req.Source)) > s.cfg.MaxSourceBytes {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, &ErrorResponse{Error: err.Error()}, status
	}
	return &req, nil, 0
}

// handleJobSubmit is POST /jobs: admit (202 with the queued job) or
// shed (429/503).  The trace opened here is the job's end-to-end
// trace: its root "job" span outlives this request (the job finishes
// it at its terminal transition), while the handler's own work is the
// "admission" child span.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ctx, root := s.startTrace(r, "job")
	adm := root.StartChild("admission")
	if adm != nil {
		ctx = obs.ContextWith(ctx, adm)
	}
	r = r.WithContext(ctx)
	handedOff := false
	defer func() {
		// Failed submissions never reach a worker; close the trace here.
		if !handedOff {
			root.Trace().Finish()
		}
	}()
	req, errResp, status := s.decodeJobRequest(w, r)
	if errResp != nil {
		adm.SetError(errResp.Error)
		s.finish(w, r, kindJobs, start, status, mustJSON(errResp), "")
		return
	}
	j, err := s.jobs.submit(req, root.Trace(), root)
	switch {
	case err == nil:
		handedOff = true
		s.metrics.jobs.add(`event="submitted"`, 1)
		s.finish(w, r, kindJobs, start, http.StatusAccepted, mustJSON(j.response(time.Now())), "")
	case errors.Is(err, ErrDraining):
		s.finish(w, r, kindJobs, start, http.StatusServiceUnavailable,
			mustJSON(&ErrorResponse{Error: "server is shutting down"}), "")
	case errors.Is(err, ErrOverloaded):
		s.metrics.jobs.add(`event="shed"`, 1)
		s.metrics.shed.inc()
		msg := "overloaded: job queue is full, retry later"
		if errors.Is(err, errTenantQueueFull) {
			msg = "overloaded: tenant job queue is full, retry later"
		}
		s.finish(w, r, kindJobs, start, http.StatusTooManyRequests,
			mustJSON(&ErrorResponse{Error: msg}), "")
	default:
		s.finish(w, r, kindJobs, start, http.StatusInternalServerError,
			mustJSON(&ErrorResponse{Error: err.Error()}), "")
	}
}

// handleJobGet is GET /jobs/{id}.  Without query parameters it returns
// the current state immediately.  With ?gen=N&wait=D it long-polls:
// the response is delayed (up to D, capped by JobPollMax) until the
// job's generation exceeds N, so pollers see every state transition
// without tight-looping.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	j := s.jobs.get(id)
	r, _ = s.jobRequestSpan(r, j, "GET /jobs/{id}", "poll")
	if j == nil {
		s.finish(w, r, kindJobPoll, start, http.StatusNotFound,
			mustJSON(&ErrorResponse{Error: "no such job: " + id}), "")
		return
	}
	q := r.URL.Query()
	sinceGen := int64(-1)
	if g := q.Get("gen"); g != "" {
		v, err := strconv.ParseInt(g, 10, 64)
		if err != nil {
			s.finish(w, r, kindJobPoll, start, http.StatusBadRequest,
				mustJSON(&ErrorResponse{Error: "bad gen: " + err.Error()}), "")
			return
		}
		sinceGen = v
	}
	var wait time.Duration
	if wq := q.Get("wait"); wq != "" {
		d, err := time.ParseDuration(wq)
		if err != nil {
			s.finish(w, r, kindJobPoll, start, http.StatusBadRequest,
				mustJSON(&ErrorResponse{Error: "bad wait: " + err.Error()}), "")
			return
		}
		wait = min(d, s.cfg.JobPollMax)
	}
	deadline := time.Now().Add(wait)
	// waited accumulates time intentionally parked in the long-poll
	// select; finishWait excludes it from the endpoint latency
	// histogram (a client asking to wait 30s is not a slow server) and
	// records it in the wait histogram instead.
	var waited time.Duration
	for {
		resp, gen, changed := j.poll(time.Now())
		if s.draining.Load() {
			// Drain has begun: answer promptly with a terminal-for-now
			// snapshot instead of holding the poll open, and tell the
			// client to reconnect elsewhere.  http.Server.Shutdown waits
			// for in-flight requests, so a held-open long-poll would
			// stall the whole graceful exit for up to JobPollMax.
			w.Header().Set("Connection", "close")
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, mustJSON(resp), "")
			return
		}
		if sinceGen < 0 || gen > sinceGen || wait <= 0 {
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, mustJSON(resp), "")
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			// Poll window elapsed with no change: report current state.
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, mustJSON(resp), "")
			return
		}
		timer := time.NewTimer(remain)
		parked := time.Now()
		select {
		case <-changed:
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.drainCh:
		}
		timer.Stop()
		waited += time.Since(parked)
		if r.Context().Err() != nil {
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, mustJSON(resp), "")
			return
		}
	}
}

// handleJobDelete is DELETE /jobs/{id}: cancel a queued or running
// job, or delete a terminal one.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	j := s.jobs.get(id)
	r, _ = s.jobRequestSpan(r, j, "DELETE /jobs/{id}", "cancel")
	if j == nil {
		s.finish(w, r, kindJobCancel, start, http.StatusNotFound,
			mustJSON(&ErrorResponse{Error: "no such job: " + id}), "")
		return
	}
	resp := s.jobs.cancelJob(j)
	s.finish(w, r, kindJobCancel, start, http.StatusOK, mustJSON(resp), "")
}

// jobRequestSpan attaches a poll/cancel request to the job's
// end-to-end trace as a child span when the job still has a live one,
// and falls back to a standalone request trace otherwise (no such
// job, trace already finished, or tracing disabled at submission).
func (s *Server) jobRequestSpan(r *http.Request, j *job, traceName, childName string) (*http.Request, *obs.Span) {
	if j != nil {
		j.mu.Lock()
		root := j.root
		j.mu.Unlock()
		if sp := root.StartChild(childName); sp != nil {
			sp.SetAttr("remote", r.RemoteAddr)
			return r.WithContext(obs.ContextWith(r.Context(), sp)), sp
		}
	}
	ctx, root := s.startTrace(r, traceName)
	return r.WithContext(ctx), root
}
