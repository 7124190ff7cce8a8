package serve

import (
	"bytes"
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
// the synchronous RequestTimeout: they run in the scheduler's job
// class, whose JobWorkers running slots are separate from the sync
// class's, under the JobTimeout wall budget, report periodic progress
// snapshots from the execution core, and keep their terminal result
// pollable for JobTTL before a janitor reclaims them.  A job whose
// /run content address the response cache already holds never enters
// the scheduler: it is done in the 202 that acknowledges it.
//
// Scheduling is fair across tenants: each tenant is a scheduler lane,
// and lanes are served round-robin, so one tenant queueing many jobs
// cannot starve another's first.  Admission is bounded twice — a total
// queue cap (JobQueueDepth) and a per-tenant cap (JobTenantQueue) — and
// over-cap submissions are shed with 429, the synchronous tier's
// load-shedding discipline.

// jobState is the job lifecycle: queued → running → done|failed|canceled
// (queued jobs may also go directly to canceled, and a response-cache
// hit at submission starts out done).
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
	// result is the job's /run body as the response cache stores it:
	// rendered once by the run that produced it and never decoded or
	// re-encoded after.  Shared with the cache, so never modified.
	result []byte
	errMsg string
	diags  []Diagnostic
	// cancel aborts the running simulation; cancelRequested marks a
	// cancel that arrived before the worker observed it.
	cancel          context.CancelFunc
	cancelRequested bool
	expires         time.Time // terminal states only: TTL deadline
	// entry is the job's latest scheduler entry (guarded by
	// jobManager.mu); cancel and shutdown take a queued job out of the
	// scheduler through it.
	entry *entry

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

// jobResponse is JobResponse as the server renders it, with Result
// holding the stored /run body.  Its members, their order and their
// tags mirror JobResponse's, which decoding clients use
// (TestJobResponseMirror pins the two together).  The members before
// and after Result are grouped so that render can encode them on their
// own and write the body between them as it is.
type jobResponse struct {
	jobHead
	Result json.RawMessage `json:"result,omitempty"`
	jobTail
}

type jobHead struct {
	ID       string       `json:"id"`
	State    string       `json:"state"`
	Gen      int64        `json:"gen"`
	Tenant   string       `json:"tenant,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`
}

type jobTail struct {
	Error            string       `json:"error,omitempty"`
	Diagnostics      []Diagnostic `json:"diagnostics,omitempty"`
	ExpiresInSeconds float64      `json:"expires_in_seconds,omitempty"`
	Attempts         int          `json:"attempts,omitempty"`
	TraceID          string       `json:"trace_id,omitempty"`
}

// render returns the bytes mustJSON(r) returns, without handing the
// result to the encoder, which would scan and compact every byte of a
// body that is compact JSON already.
func (r *jobResponse) render() []byte {
	head, tail := mustJSON(&r.jobHead), mustJSON(&r.jobTail)
	b := head[:len(head)-2] // without "}\n"
	if len(r.Result) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, bytes.TrimSuffix(r.Result, []byte("\n"))...)
	}
	if len(tail) > len("{}\n") {
		b = append(b, ',')
	}
	return append(b, tail[1:]...) // without "{"
}

// responseLocked renders the wire form.  Caller holds j.mu.
func (j *job) responseLocked(now time.Time) *jobResponse {
	resp := &jobResponse{
		jobHead: jobHead{ID: j.id, State: j.state.String(), Gen: j.gen, Tenant: j.tenant},
		Result:  j.result,
		jobTail: jobTail{Error: j.errMsg, Diagnostics: j.diags, Attempts: j.attempt},
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

func (j *job) response(now time.Time) *jobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.responseLocked(now)
}

// poll returns the current wire form plus the generation and the
// channel that closes on the next change, atomically.  A terminal
// job's generation never moves again, so for one the channel is nil.
func (j *job) poll(now time.Time) (*jobResponse, int64, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	changed := j.changed
	if j.state.terminal() {
		changed = nil
	}
	return j.responseLocked(now), j.gen, changed
}

// jobManager owns the job table and the TTL janitor; the scheduler
// owns the queue.
type jobManager struct {
	srv *Server
	cfg Config

	mu     sync.Mutex
	closed bool
	byID   map[string]*job
	seq    int64 // last issued submission sequence (recovered from the journal)

	// store is the durable journal (nil: memory-only); rec reports
	// what boot-time recovery reconstructed; storeErr is why opening
	// the store failed, when it did.
	store    *durable.Store
	rec      RecoveryInfo
	storeErr string

	done chan struct{}
	wg   sync.WaitGroup // the janitor
}

// newJobManager builds the manager without starting it; the server
// runs recovery (openStore) first, then start.
func newJobManager(s *Server) *jobManager {
	return &jobManager{
		srv:  s,
		cfg:  s.cfg,
		byID: make(map[string]*job),
		done: make(chan struct{}),
	}
}

func (jm *jobManager) start() {
	jm.wg.Add(1)
	go jm.janitor()
}

// submit admits a job or sheds it.  The returned job is already
// visible to GET /jobs/{id}.  tr/root, when non-nil, become the job's
// end-to-end trace; the job takes ownership (finished at the terminal
// transition) only on successful admission.
//
// A job whose /run content address the response cache already holds
// is answered as a sync hit is: it takes no admission, queue slot or
// worker, and is returned done, with the stored body as its result.
func (jm *jobManager) submit(req *JobRequest, tr *obs.Trace, root *obs.Span) (*job, error) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.closed {
		return nil, ErrDraining
	}
	body, hit := jm.cached(root, root, req.cacheKey(kindRun), jm.srv.cache.Get)
	// Admission is checked before the journal write, so a shed job
	// leaves no record; under jm.mu nothing else can fill the job class
	// before the enqueue below.
	if !hit {
		if err := jm.srv.sched.admit(jobClass, req.Tenant); err != nil {
			return nil, err
		}
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
	var err error
	if hit {
		j.state = jobDone
		j.result = body
		j.expires = time.Now().Add(jm.cfg.JobTTL)
		err = jm.settleLocked(j)
	} else {
		err = jm.putTraced(j, jm.recordLocked(j))
	}
	j.mu.Unlock()
	if err != nil {
		j.trace, j.root = nil, nil
		return nil, err
	}
	jm.seq = j.seq
	if hit {
		jm.byID[j.id] = j
		jm.srv.metrics.jobs.add(`event="completed"`, 1)
		return j, nil
	}
	j.qspan = root.StartChild("queue.wait")
	if err := jm.enqueueLocked(j); err != nil {
		jm.put(durable.JobRecord{Seq: j.seq, ID: j.id, State: "deleted"})
		j.trace, j.root = nil, nil
		return nil, err
	}
	jm.byID[j.id] = j
	return j, nil
}

func (jm *jobManager) get(id string) *job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.byID[id]
}

// held is the number of jobs in the table, terminal ones included.
func (jm *jobManager) held() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return len(jm.byID)
}

// runJob executes one job through the shared perform pipeline, feeding
// the execution core's progress snapshots into the job's generation
// stream.  The response cache sits in front of execution here too: a
// job whose content address an earlier job or sync /run answered while
// it was queued (or before a recovered job's reboot) completes from the
// stored body without compiling or simulating, and a job that executes
// to a 200 result fills the cache for both tiers.
// With a durable store, the run checkpoints periodically and transient
// failures (a checkpoint that no longer verifies) retry with backoff,
// falling back candidate by candidate to a clean start.
func (jm *jobManager) runJob(j *job) {
	ctx, cancel := context.WithTimeout(jm.srv.base, jm.cfg.JobTimeout)
	defer cancel()

	var rec *durable.JobRecord
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
	jm.putTraced(j, rec)
	// The run span carries the execution through the shared pipeline:
	// compile passes, sim slices, and checkpoint spills all become its
	// children via the context.
	ctx = obs.ContextWith(ctx, runSpan)

	key := j.req.cacheKey(kindRun)
	body, hit := jm.cached(j.root, runSpan, key, jm.srv.cache.peek)
	var out runOutcome
	for !hit {
		out = jm.runOnce(ctx, j, key)
		if out.resumeErr == nil || !jm.retryWait(j) {
			break
		}
	}
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
	case body != nil:
		j.state = jobDone
		j.result = body
		event = `event="completed"`
		if !hit {
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
		jm.putTraced(j, rec)
	}
	jm.removeRefs(dropRefs...)
	jm.srv.metrics.jobs.add(event, 1)
}

// cached looks a job's /run content address up in the response cache
// through lookup, under a cache.lookup child of parent, and marks the
// job's root span with the outcome.  It runs at submission (Get) and
// again at dispatch, for jobs that queued before an identical job or
// sync /run filled the entry and for jobs recovered from the journal.
// The dispatch lookup is a peek, as the sync tier's re-check inside a
// flight is, so the cache's hit and miss counters see one lookup per
// submitted job.  The stored body is exactly what a cold run renders,
// so it becomes the job's result as it is: a hit is indistinguishable
// from an execution except that it carries no progress.
func (jm *jobManager) cached(root, parent *obs.Span, key Key, lookup func(Key) ([]byte, bool)) ([]byte, bool) {
	sp := parent.StartChild("cache.lookup")
	body, ok := lookup(key)
	sp.End()
	if !ok {
		root.SetAttr("cache", "miss")
		return nil, false
	}
	root.SetAttr("cache", "hit")
	jm.srv.metrics.jobs.add(`event="cache_hit"`, 1)
	return body, true
}

// putTraced journals one record with a journal.append child span on
// the job's trace, so WAL writes show up on the job timeline.  A nil
// record (no store) journals nothing.
func (jm *jobManager) putTraced(j *job, rec *durable.JobRecord) error {
	if rec == nil {
		return nil
	}
	sp := j.root.StartChild("journal.append")
	sp.SetAttr("state", rec.State)
	err := jm.put(*rec)
	sp.EndErr(err)
	return err
}

// settleLocked publishes a terminal state the job has just entered:
// journal the record, close the end-to-end trace, and only then bump
// the generation.  Pollers read state under j.mu, so none sees the
// terminal state before its trace is finished.  The journal error is
// returned for a submission, which must not acknowledge a job it
// could not record.  Caller holds j.mu.
func (jm *jobManager) settleLocked(j *job) error {
	err := jm.putTraced(j, jm.recordLocked(j))
	if j.trace != nil {
		j.root.SetAttr("state", j.state.String())
		j.trace.Finish()
	}
	j.bumpLocked()
	return err
}

// runOnce is one attempt: load the best resume candidate, run through
// perform with checkpointing wired, and on a resume failure drop the
// candidate so the next attempt falls back.
func (jm *jobManager) runOnce(ctx context.Context, j *job, key Key) runOutcome {
	opts := wmstream.SimOptions{
		MaxWall:       jm.cfg.JobTimeout,
		ProgressEvery: jm.cfg.JobProgressEvery,
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
func (jm *jobManager) cancelJob(j *job) *jobResponse {
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
		if jm.srv.sched.remove(j.entry) {
			j.state = jobCanceled
			j.expires = now.Add(jm.cfg.JobTTL)
			j.qspan.SetAttr("outcome", "canceled")
			j.qspan.End()
			j.qspan = nil
			jm.settleLocked(j)
			jm.srv.metrics.jobs.add(`event="canceled"`, 1)
		} else {
			// The scheduler started it between our lookup and now; it
			// will observe the flag before (or right after) starting.
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

// close stops admission, takes every queued job out of the scheduler,
// and waits for the janitor to exit; Server.Close then drains the
// scheduler, whose running jobs have already had their base context
// canceled.  Memory-only, the queued jobs are canceled — there is
// nowhere for them to survive; with a journal they stay "queued" both
// in memory and on disk, and the next boot re-admits them with their
// original tenants and order.
func (jm *jobManager) close() {
	jm.mu.Lock()
	if jm.closed {
		jm.mu.Unlock()
		return
	}
	jm.closed = true
	now := time.Now()
	for _, j := range jm.byID {
		if !jm.srv.sched.remove(j.entry) || jm.store != nil {
			continue
		}
		j.mu.Lock()
		j.state = jobCanceled
		j.expires = now.Add(jm.cfg.JobTTL)
		jm.settleLocked(j)
		j.mu.Unlock()
		jm.srv.metrics.jobs.add(`event="canceled"`, 1)
	}
	close(jm.done)
	jm.mu.Unlock()
	jm.wg.Wait()
}

// closeStore releases the journal once no job can write to it.
func (jm *jobManager) closeStore() {
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

// handleJobSubmit is POST /jobs: admit (202 with the queued job, or
// with the done one on a response-cache hit) or shed (429/503).  The
// trace opened here is the job's end-to-end trace: its root "job" span
// outlives this request (the job finishes it at its terminal
// transition), while the handler's own work is the "admission" child
// span.
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
		s.finish(w, r, kindJobs, start, http.StatusAccepted, j.response(time.Now()).render(), "")
	case errors.Is(err, ErrDraining):
		s.finish(w, r, kindJobs, start, http.StatusServiceUnavailable,
			mustJSON(&ErrorResponse{Error: "server is shutting down"}), "")
	case errors.Is(err, ErrOverloaded):
		s.metrics.jobs.add(`event="shed"`, 1)
		s.metrics.shed.inc()
		msg := "overloaded: job queue is full, retry later"
		if errors.Is(err, errLaneFull) {
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
// without tight-looping.  A terminal job answers at once.
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
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, resp.render(), "")
			return
		}
		// A terminal job (nil changed) has nothing left to wait for.
		if sinceGen < 0 || gen > sinceGen || wait <= 0 || changed == nil {
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, resp.render(), "")
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			// Poll window elapsed with no change: report current state.
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, resp.render(), "")
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
			s.finishWait(w, r, kindJobPoll, start, waited, http.StatusOK, resp.render(), "")
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
	s.finish(w, r, kindJobCancel, start, http.StatusOK, resp.render(), "")
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
