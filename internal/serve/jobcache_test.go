package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"wmstream/internal/durable"
)

// execCounter is a CompileHook that counts executions per content
// address.
type execCounter struct {
	mu sync.Mutex
	n  map[Key]int
}

func (c *execCounter) hook(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = map[Key]int{}
	}
	c.n[k]++
}

func (c *execCounter) count(k Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[k]
}

// runJobToEnd submits a job and long-polls it to its terminal state.
func runJobToEnd(t *testing.T, ts *httptest.Server, req *JobRequest) JobResponse {
	t.Helper()
	res, jr := submitJob(t, ts, req)
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", res.status, res.body)
	}
	return waitTerminal(t, ts, jr.ID, jr.Gen)
}

// jobEvents reads wmserved_jobs_total{event=...} from /metrics (0 when
// the event has never fired).
func jobEvents(t *testing.T, ts *httptest.Server, event string) float64 {
	t.Helper()
	for _, s := range scrape(t, ts).samples {
		if s.name == "wmserved_jobs_total" && s.labels == `event="`+event+`"` {
			return s.value
		}
	}
	return 0
}

// TestJobCacheRepeatRunsOnce: two sequential identical jobs execute
// once.  The second completes from the entry the first stored, with the
// same result, no progress, no attempts, and a trace that says so: the
// first looked the cache up at submission and again at dispatch, the
// second only at submission, where it hit.
func TestJobCacheRepeatRunsOnce(t *testing.T) {
	var ec execCounter
	srv, ts := newTestServer(t, Config{CompileHook: ec.hook, JobProgressEvery: time.Millisecond})
	req := &JobRequest{Request: Request{Source: streamSrc, Level: intp(3)}}
	key := req.cacheKey(kindRun)

	first := runJobToEnd(t, ts, req)
	second := runJobToEnd(t, ts, req)
	for n, jr := range []JobResponse{first, second} {
		if jr.State != "done" || jr.Result == nil {
			t.Fatalf("job %d ended %q (error %q)", n, jr.State, jr.Error)
		}
	}
	if got := ec.count(key); got != 1 {
		t.Fatalf("%d executions for two identical jobs, want 1", got)
	}
	// Each job counts one lookup: the dispatch re-check is not counted.
	if st := srv.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache counted %d hits and %d misses, want 1 and 1", st.Hits, st.Misses)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("cached result differs:\nexecuted: %+v\ncached:   %+v", first.Result, second.Result)
	}
	if first.Progress == nil {
		t.Error("executed job carries no progress")
	}
	if second.Progress != nil || second.Attempts != 0 {
		t.Errorf("cache-hit job: progress %+v attempts %d, want none and 0", second.Progress, second.Attempts)
	}
	if got := jobEvents(t, ts, "cache_hit"); got != 1 {
		t.Errorf("cache_hit events %g, want 1", got)
	}
	if got := jobEvents(t, ts, "completed"); got != 2 {
		t.Errorf("completed events %g, want 2", got)
	}

	for _, c := range []struct {
		jr      JobResponse
		cache   string
		lookups int
		execs   bool
	}{{first, "miss", 2, true}, {second, "hit", 1, false}} {
		snap := getTrace(t, ts, c.jr.TraceID)
		if !snap.Finished {
			t.Fatalf("%s job's trace not finished when it reported done", c.cache)
		}
		if got := snap.Spans[0].Attrs["cache"]; got != c.cache {
			t.Errorf("root cache attr %q, want %q", got, c.cache)
		}
		_, counts := spansByName(snap)
		if counts["cache.lookup"] != c.lookups {
			t.Errorf("%s job: %d cache.lookup spans, want %d", c.cache, counts["cache.lookup"], c.lookups)
		}
		if (counts["run"] > 0) != c.execs || (counts["compile"] > 0) != c.execs || (counts["sim"] > 0) != c.execs {
			t.Errorf("%s job: run/compile/sim spans %d/%d/%d, executed=%v",
				c.cache, counts["run"], counts["compile"], counts["sim"], c.execs)
		}
	}
}

// TestJobFilledEntryServesSyncRun: the entry a job stores answers a
// sync /run as a hit, in exactly the bytes a cold /run renders on a
// fresh server, and the job's own result renders to those bytes too.
func TestJobFilledEntryServesSyncRun(t *testing.T) {
	var ec execCounter
	_, ts := newTestServer(t, Config{CompileHook: ec.hook})
	req := Request{Source: streamSrc, Level: intp(2)}

	done := runJobToEnd(t, ts, &JobRequest{Request: req})
	if done.State != "done" {
		t.Fatalf("job ended %q (error %q)", done.State, done.Error)
	}
	hit := post(t, ts, "/run", &req)
	if hit.status != http.StatusOK || hit.cache != "hit" {
		t.Fatalf("/run after job: status %d X-Cache %q, want 200 hit", hit.status, hit.cache)
	}
	if got := ec.count(req.cacheKey(kindRun)); got != 1 {
		t.Fatalf("%d executions, want 1 (the job's)", got)
	}

	_, fresh := newTestServer(t, Config{})
	cold := post(t, fresh, "/run", &req)
	if cold.status != http.StatusOK || cold.cache != "miss" {
		t.Fatalf("cold /run: status %d X-Cache %q", cold.status, cold.cache)
	}
	if !bytes.Equal(hit.body, cold.body) {
		t.Fatalf("job-filled body differs from a cold /run:\nhit:  %s\ncold: %s", hit.body, cold.body)
	}
	if got := mustJSON(done.Result); !bytes.Equal(got, cold.body) {
		t.Fatalf("job result renders differently from a cold /run:\njob:  %s\ncold: %s", got, cold.body)
	}
}

// TestSyncFilledEntryCompletesJob: a job whose content address a sync
// /run already answered completes from that entry without executing.
func TestSyncFilledEntryCompletesJob(t *testing.T) {
	var ec execCounter
	_, ts := newTestServer(t, Config{CompileHook: ec.hook})
	req := Request{Source: helloSrc, Machine: &MachineSpec{MemLatency: 8}}

	filled := post(t, ts, "/run", &req)
	if filled.status != http.StatusOK || filled.cache != "miss" {
		t.Fatalf("/run: status %d X-Cache %q", filled.status, filled.cache)
	}
	done := runJobToEnd(t, ts, &JobRequest{Request: req, Tenant: "alice"})
	if done.State != "done" || done.Result == nil {
		t.Fatalf("job ended %q (error %q)", done.State, done.Error)
	}
	if got := ec.count(req.cacheKey(kindRun)); got != 1 {
		t.Fatalf("%d executions, want 1 (the sync /run's)", got)
	}
	if got := mustJSON(done.Result); !bytes.Equal(got, filled.body) {
		t.Fatalf("job result differs from the sync body:\njob:  %s\nsync: %s", got, filled.body)
	}
	if got := jobEvents(t, ts, "cache_hit"); got != 1 {
		t.Errorf("cache_hit events %g, want 1", got)
	}
}

// TestJobFailuresNotCached: failed jobs — a compile error and a trap
// mid-simulation — and canceled jobs store nothing, so resubmitting
// each executes it again.
func TestJobFailuresNotCached(t *testing.T) {
	var ec execCounter
	srv, ts := newTestServer(t, Config{CompileHook: ec.hook, JobProgressEvery: time.Millisecond})

	for _, req := range []*JobRequest{
		{Request: Request{Source: "int main(void) { return x; }"}},
		{Request: Request{Source: helloSrc, Machine: &MachineSpec{MaxCycles: 10}}},
	} {
		for n := 1; n <= 2; n++ {
			if jr := runJobToEnd(t, ts, req); jr.State != "failed" {
				t.Fatalf("%q: state %q, want failed", req.Source, jr.State)
			}
			if got := ec.count(req.cacheKey(kindRun)); got != n {
				t.Fatalf("%q: %d executions after %d failed jobs", req.Source, got, n)
			}
		}
	}

	slow := &JobRequest{Request: Request{Source: slowSrc, Level: intp(0)}}
	key := slow.cacheKey(kindRun)
	for n := 1; n <= 2; n++ {
		_, jr := submitJob(t, ts, slow)
		waitFor(t, "slow job to execute", func() bool { return ec.count(key) == n })
		deleteJob(t, ts, jr.ID)
		if got := waitTerminal(t, ts, jr.ID, 0); got.State != "canceled" {
			t.Fatalf("slow job %d ended %q, want canceled", n, got.State)
		}
	}
	if st := srv.cache.Stats(); st.Entries != 0 {
		t.Fatalf("failed or canceled jobs left %d cache entries", st.Entries)
	}
	if got := jobEvents(t, ts, "cache_hit"); got != 0 {
		t.Fatalf("cache_hit events %g, want 0", got)
	}
}

// TestJobCacheDisabled: with the cache off, every job queues and
// executes, a repeated one too.
func TestJobCacheDisabled(t *testing.T) {
	var ec execCounter
	_, ts := newTestServer(t, Config{CacheBytes: -1, CompileHook: ec.hook})
	req := &JobRequest{Request: Request{Source: helloSrc}}
	first := runJobToEnd(t, ts, req)
	second := runJobToEnd(t, ts, req)
	if first.State != "done" || second.State != "done" {
		t.Fatalf("jobs ended %q and %q", first.State, second.State)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("results differ: %+v vs %+v", first.Result, second.Result)
	}
	if got := ec.count(req.cacheKey(kindRun)); got != 2 {
		t.Fatalf("%d executions with the cache disabled, want 2", got)
	}
	_, counts := spansByName(getTrace(t, ts, second.TraceID))
	if counts["queue.wait"] != 1 || counts["run"] != 1 {
		t.Errorf("repeated job: queue.wait/run spans %d/%d, want 1/1", counts["queue.wait"], counts["run"])
	}
}

// TestRecoveredJobCompletesFromCache: a job recovered from the journal
// with a checkpoint, whose content address is cached by the time it is
// dispatched, completes from the cache instead of resuming, and drops
// its checkpoint blobs.
func TestRecoveredJobCompletesFromCache(t *testing.T) {
	dir := t.TempDir()
	blocker := crashJobReq("translated")
	target := &JobRequest{Request: Request{
		Source: `int main(void) {
    int i; double s;
    s = 0.0;
    for (i = 0; i < 600000; i++) s = s + i * 0.5;
    putd(s);
    return 0;
}`,
		Level: intp(0),
	}}

	// Both jobs run side by side until each has spilled a checkpoint,
	// then the process dies.
	srv := New(durableCfg(dir, nil))
	ts := httptest.NewServer(srv)
	_, b := submitJob(t, ts, blocker)
	_, tj := submitJob(t, ts, target)
	waitCycles(t, ts, b.ID, 600_000)
	waitCycles(t, ts, tj.ID, 600_000)
	srv.crash()
	ts.Close()
	srv.Close()

	// On reboot one worker takes the blocker first (submission order)
	// and parks in the hook, so the target stays queued while a sync
	// /run fills its entry.
	var ec execCounter
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	cfg := durableCfg(dir, nil)
	cfg.JobWorkers = 1
	cfg.RequestTimeout = 2 * time.Minute
	cfg.CompileHook = func(k Key) {
		ec.hook(k)
		if k == blocker.cacheKey(kindRun) {
			enterOnce.Do(func() { close(entered) })
			<-release
		}
	}
	srv2, ts2 := newTestServer(t, cfg)
	t.Cleanup(unblock) // runs before the server's Close, which waits for the worker
	if rec, _ := srv2.Recovery(); rec.Resumed != 2 {
		t.Fatalf("recovery resumed %d jobs, want 2 (%+v)", rec.Resumed, rec)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never dispatched")
	}
	run := post(t, ts2, "/run", &target.Request)
	if run.status != http.StatusOK {
		t.Fatalf("/run: status %d: %s", run.status, run.body)
	}
	deleteJob(t, ts2, b.ID)
	unblock()

	done := waitTerminal(t, ts2, tj.ID, 0)
	if done.State != "done" || done.Result == nil {
		t.Fatalf("recovered job ended %q (error %q)", done.State, done.Error)
	}
	if got := ec.count(target.cacheKey(kindRun)); got != 1 {
		t.Fatalf("target executed %d times, want 1 (the sync /run)", got)
	}
	if got := mustJSON(done.Result); !bytes.Equal(got, run.body) {
		t.Fatalf("recovered job result differs from /run:\njob: %s\nrun: %s", got, run.body)
	}
	if done.Progress != nil {
		t.Errorf("cache-hit job carries progress %+v", done.Progress)
	}
	if bj := waitTerminal(t, ts2, b.ID, 0); bj.State != "canceled" {
		t.Fatalf("blocker ended %q, want canceled", bj.State)
	}
	waitFor(t, "checkpoint blobs to be dropped", func() bool {
		blobs, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "*.ckpt"))
		return len(blobs) == 0
	})
}

// TestRunResponseRoundTrip: a client that decodes a job's result into
// JobResponse.Result and renders it again gets the stored /run body
// byte for byte, including the characters the encoder escapes; the
// tests here compare job results with sync bodies that way.  (The
// simulator writes putc as %c of a byte, so output is always valid
// UTF-8.)
func TestRunResponseRoundTrip(t *testing.T) {
	in := RunResponse{
		Listing:     "a < b && c > d\n\tx\u2028",
		Diagnostics: []Diagnostic{{Severity: "warning", Msg: "m"}},
		Cycles:      1,
		Output:      "\x00\x7f\u00c8<>&\"\\",
	}
	body := mustJSON(&in)
	var out RunResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(&out); !bytes.Equal(got, body) {
		t.Fatalf("round trip changed the body:\n%s\n%s", body, got)
	}
}

// TestJobCacheHitAtSubmit: a job whose /run content address is cached
// is done in its 202.  It takes no queue slot and no worker (the only
// job worker stays busy throughout), its result is the stored body as
// it is, and its finished trace holds the one lookup and no run.  A
// closed server still refuses it.
func TestJobCacheHitAtSubmit(t *testing.T) {
	var ec execCounter
	blocker := crashJobReq("translated")
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	srv, ts := newTestServer(t, Config{JobWorkers: 1, CompileHook: func(k Key) {
		ec.hook(k)
		if k == blocker.cacheKey(kindRun) {
			enterOnce.Do(func() { close(entered) })
			<-release
		}
	}})
	t.Cleanup(unblock) // runs before the server's Close, which waits for the worker
	req := &JobRequest{Request: Request{Source: streamSrc, Level: intp(3)}, Tenant: "alice"}
	key := req.cacheKey(kindRun)

	first := runJobToEnd(t, ts, req)
	if first.State != "done" || first.Result == nil {
		t.Fatalf("first job ended %q (error %q)", first.State, first.Error)
	}
	_, b := submitJob(t, ts, blocker)
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("blocker never dispatched")
	}
	jobGauges := func() (queued, running float64) {
		for _, s := range scrape(t, ts).samples {
			switch s.name {
			case "wmserved_jobs_queued":
				queued = s.value
			case "wmserved_jobs_running":
				running = s.value
			}
		}
		return queued, running
	}
	if q, r := jobGauges(); q != 0 || r != 1 {
		t.Fatalf("before the hit: jobs queued %g running %g, want 0 and 1", q, r)
	}

	res, second := submitJob(t, ts, req)
	if res.status != http.StatusAccepted {
		t.Fatalf("hit submit status %d: %s", res.status, res.body)
	}
	if second.State != "done" || second.Result == nil || second.Gen == 0 || second.ExpiresInSeconds <= 0 {
		t.Fatalf("hit 202: state %q gen %d expires %g result %v, want done with a result",
			second.State, second.Gen, second.ExpiresInSeconds, second.Result != nil)
	}
	if q, r := jobGauges(); q != 0 || r != 1 {
		t.Errorf("after the hit: jobs queued %g running %g, want 0 and 1", q, r)
	}
	if got := ec.count(key); got != 1 {
		t.Errorf("%d executions, want 1 (the first job's)", got)
	}

	// The result is the stored body itself, and equals the first job's
	// result and a sync /run of the same request.
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(res.body, &raw); err != nil {
		t.Fatal(err)
	}
	stored, ok := srv.cache.peek(key)
	if !ok {
		t.Fatal("no cache entry for the job's content address")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, stored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw.Result, compact.Bytes()) {
		t.Fatalf("202 result is not the stored body:\n202:    %s\nstored: %s", raw.Result, stored)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Fatalf("hit result differs:\nexecuted: %+v\nhit:      %+v", first.Result, second.Result)
	}
	run := post(t, ts, "/run", &req.Request)
	if run.status != http.StatusOK || run.cache != "hit" {
		t.Fatalf("/run: status %d X-Cache %q, want 200 hit", run.status, run.cache)
	}
	if got := mustJSON(second.Result); !bytes.Equal(got, run.body) {
		t.Fatalf("hit result differs from the sync body:\njob:  %s\nsync: %s", got, run.body)
	}

	snap := getTrace(t, ts, second.TraceID)
	if !snap.Finished {
		t.Fatal("hit job's trace not finished at its 202")
	}
	if got := snap.Spans[0].Attrs["cache"]; got != "hit" {
		t.Errorf("root cache attr %q, want hit", got)
	}
	if got := snap.Spans[0].Attrs["state"]; got != "done" {
		t.Errorf("root state attr %q, want done", got)
	}
	_, counts := spansByName(snap)
	if counts["cache.lookup"] != 1 || counts["run"] != 0 || counts["queue.wait"] != 0 {
		t.Errorf("hit trace: cache.lookup/run/queue.wait spans %d/%d/%d, want 1/0/0",
			counts["cache.lookup"], counts["run"], counts["queue.wait"])
	}
	for event, want := range map[string]float64{"submitted": 3, "cache_hit": 1, "completed": 2} {
		if got := jobEvents(t, ts, event); got != want {
			t.Errorf("%s events %g, want %g", event, got, want)
		}
	}

	deleteJob(t, ts, b.ID)
	unblock()
	srv.Close()
	if res, _ := submitJob(t, ts, req); res.status != http.StatusServiceUnavailable {
		t.Errorf("hit submit on a closed server: status %d, want 503", res.status)
	}
}

// TestJobCacheHitAtSubmitDurable: with a journal, a hit at submission
// writes exactly one record before its 202, the done one with its
// result, so a crash right after the acknowledgement loses nothing:
// the next boot restores the job, pollable, with the same result.
func TestJobCacheHitAtSubmitDurable(t *testing.T) {
	dir := t.TempDir()
	faults := &durable.FaultPoints{}
	srv := New(durableCfg(dir, faults))
	ts := httptest.NewServer(srv)
	req := &JobRequest{Request: Request{Source: helloSrc}, Tenant: "alice"}

	first := runJobToEnd(t, ts, req)
	if first.State != "done" {
		t.Fatalf("first job ended %q (error %q)", first.State, first.Error)
	}
	ops := faults.Ops()
	res, hit := submitJob(t, ts, req)
	if res.status != http.StatusAccepted || hit.State != "done" {
		t.Fatalf("hit submit: status %d state %q, want 202 done", res.status, hit.State)
	}
	if got := faults.Ops() - ops; got != 1 {
		t.Fatalf("hit wrote %d journal records before its 202, want 1", got)
	}
	// Nothing after the acknowledgement reaches the journal.
	faults.Kill()
	srv.crash()
	ts.Close()
	srv.Close()

	srv2, ts2 := newTestServer(t, durableCfg(dir, nil))
	if rec, _ := srv2.Recovery(); rec.Restored != 2 || rec.Requeued+rec.Resumed+rec.Abandoned != 0 {
		t.Fatalf("recovery %+v, want both jobs restored and nothing else", rec)
	}
	status, again := getJob(t, ts2, hit.ID, "")
	if status != http.StatusOK || again.State != "done" || again.Tenant != "alice" {
		t.Fatalf("restored hit job: status %d state %q tenant %q", status, again.State, again.Tenant)
	}
	if !reflect.DeepEqual(again.Result, first.Result) {
		t.Fatalf("restored result differs:\nfirst:    %+v\nrestored: %+v", first.Result, again.Result)
	}
	if polled := waitTerminal(t, ts2, hit.ID, again.Gen); !reflect.DeepEqual(polled.Result, first.Result) {
		t.Fatalf("polled restored result differs: %+v", polled.Result)
	}
}

// TestJobResponseMirror: jobs render through jobResponse, so its
// members, their order and their tags must stay JobResponse's, which
// clients decode; only Result's type differs.  render must write what
// the encoder writes for it, byte for byte.
func TestJobResponseMirror(t *testing.T) {
	var wire []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(jobResponse{})) {
		if !f.Anonymous {
			wire = append(wire, f)
		}
	}
	pub := reflect.TypeOf(JobResponse{})
	if pub.NumField() != len(wire) {
		t.Fatalf("JobResponse has %d fields, jobResponse %d", pub.NumField(), len(wire))
	}
	for i, w := range wire {
		p := pub.Field(i)
		if p.Name != w.Name || p.Tag != w.Tag {
			t.Errorf("field %d: JobResponse %s `%s`, jobResponse %s `%s`", i, p.Name, p.Tag, w.Name, w.Tag)
		}
		want := p.Type
		if p.Name == "Result" {
			want = reflect.TypeOf(json.RawMessage(nil))
		}
		if w.Type != want {
			t.Errorf("field %s: jobResponse type %v, want %v", w.Name, w.Type, want)
		}
	}

	result := mustJSON(&RunResponse{Listing: "a < b\n", Cycles: 7, Output: "x\"y"})
	for _, r := range []jobResponse{
		{jobHead: jobHead{ID: "1", State: "queued"}},
		{jobHead: jobHead{ID: "2", State: "running", Gen: 3, Tenant: "t\"}", Progress: &JobProgress{Cycles: 9}}},
		{jobHead: jobHead{ID: "3", State: "done", Gen: 1}, Result: result},
		{jobHead: jobHead{ID: "4", State: "done", Gen: 2}, Result: bytes.TrimSuffix(result, []byte("\n")),
			jobTail: jobTail{ExpiresInSeconds: 1.5, Attempts: 2, TraceID: "ab"}},
		{jobHead: jobHead{ID: "5", State: "failed"}, jobTail: jobTail{Error: "e", Diagnostics: []Diagnostic{{Severity: "error", Msg: "m"}}}},
	} {
		if got, want := r.render(), mustJSON(&r); !bytes.Equal(got, want) {
			t.Errorf("render differs from the encoder:\nrender:  %s\nencoder: %s", got, want)
		}
	}
}
