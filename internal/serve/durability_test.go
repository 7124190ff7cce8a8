package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wmstream/internal/durable"
)

// crashSrc runs tens of millions of naive-code cycles at O0 — long
// enough that the harness can observe it mid-run, let several
// checkpoints spill, and kill the process underneath it — while
// emitting output both early and late so the output-splicing path is
// exercised across the restart.
const crashSrc = `double a[128];
int main(void) {
    int i, r; double s;
    for (i = 0; i < 128; i++) a[i] = (i & 15) * 0.25;
    s = 0.0;
    for (r = 0; r < 15000; r++) {
        for (i = 0; i < 128; i++) s = s + a[i];
        if ((r & 4095) == 0) puti(r);
    }
    putd(s);
    return 0;
}`

func crashJobReq(engine string) *JobRequest {
	return &JobRequest{Request: Request{
		Source:  crashSrc,
		Level:   intp(0),
		Machine: &MachineSpec{Engine: engine},
	}}
}

// durableCfg is the job-tier configuration the durability tests share:
// a journal under dir, frequent checkpoints, and fast progress so the
// harness can watch cycles advance.
func durableCfg(dir string, faults *durable.FaultPoints) Config {
	return Config{
		JobDir:             dir,
		JobFaults:          faults,
		JobWorkers:         2,
		JobCheckpointEvery: 500_000,
		JobProgressEvery:   time.Millisecond,
		JobRetryBase:       5 * time.Millisecond,
	}
}

// baselineRun computes the uninterrupted result of a job request on a
// fresh memory-only server: the reference every recovered run must
// match byte for byte.
func baselineRun(t *testing.T, req *JobRequest) *RunResponse {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	res, jr := submitJob(t, ts, req)
	if res.status != http.StatusAccepted {
		t.Fatalf("baseline submit status %d: %s", res.status, res.body)
	}
	done := waitTerminal(t, ts, jr.ID, jr.Gen)
	if done.State != "done" || done.Result == nil {
		t.Fatalf("baseline run ended %q (error %q)", done.State, done.Error)
	}
	return done.Result
}

// waitCycles polls until the job has simulated at least n cycles,
// proving it is observably mid-run (and, for n well past the
// checkpoint interval, that checkpoints have spilled).
func waitCycles(t *testing.T, ts *httptest.Server, id string, n int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status, jr := getJob(t, ts, id, "")
		if status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
		switch jr.State {
		case "queued", "running":
			if jr.Progress != nil && jr.Progress.Cycles >= n {
				return
			}
		default:
			t.Fatalf("job %s reached %q before %d cycles", id, jr.State, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d cycles", id, n)
}

func healthJobs(t *testing.T, ts *httptest.Server) *JobsHealth {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("bad health JSON: %v", err)
	}
	if h.Jobs == nil {
		t.Fatal("healthz carries no jobs section")
	}
	return h.Jobs
}

// TestJobCrashRestartHarness is the end-to-end durability harness: two
// rounds of traffic, each killed abruptly mid-run (fault injection
// wedges the journal exactly as a dying process would), then a clean
// boot.  Invariants: no acknowledged job is ever lost across any
// restart, and every recovered run — including the one resumed from a
// mid-flight checkpoint on a *different* engine — finishes with a
// result byte-identical to an uninterrupted run.
func TestJobCrashRestartHarness(t *testing.T) {
	dir := t.TempDir()
	engines := []string{"translated", "reference"}
	want := map[string]*RunResponse{}
	for _, e := range engines {
		want[e] = baselineRun(t, crashJobReq(e))
	}
	if !reflect.DeepEqual(want["translated"], want["reference"]) {
		t.Fatalf("engines disagree before any crash:\ntranslated: %+v\nreference:  %+v",
			want["translated"], want["reference"])
	}

	acked := map[string]string{} // job ID -> engine
	for round, engine := range engines {
		faults := &durable.FaultPoints{}
		srv := New(durableCfg(dir, faults))
		ts := httptest.NewServer(srv)

		// Every job acknowledged before a previous kill must still be
		// visible after the reboot.
		for id := range acked {
			if status, _ := getJob(t, ts, id, ""); status != http.StatusOK {
				t.Fatalf("round %d: acked job %s lost across restart (status %d)", round, id, status)
			}
		}
		if round > 0 {
			rec, mode := srv.Recovery()
			if mode != "durable" {
				t.Fatalf("round %d: journal mode %q, want durable", round, mode)
			}
			if rec.Requeued+rec.Resumed+rec.Restored == 0 {
				t.Fatalf("round %d: recovery reconstructed nothing: %+v", round, rec)
			}
			if rec.TornTails == 0 {
				t.Fatalf("round %d: torn tail not detected: %+v", round, rec)
			}
		}

		res, jr := submitJob(t, ts, crashJobReq(engine))
		if res.status != http.StatusAccepted {
			t.Fatalf("round %d: submit status %d: %s", round, res.status, res.body)
		}
		acked[jr.ID] = engine

		// Let it run well past several checkpoint intervals, then die.
		waitCycles(t, ts, jr.ID, 2_000_000)
		faults.Kill()
		srv.crash()
		ts.Close()
		srv.Close()

		// Simulate the torn tail a real kill -9 leaves: garbage bytes
		// mid-frame at the end of the newest segment.
		tearJournalTail(t, dir)
	}

	// Clean boot: everything acked must exist, resume, and finish
	// identically to the uninterrupted baseline.
	srv, ts := newTestServer(t, durableCfg(dir, nil))
	rec, mode := srv.Recovery()
	if mode != "durable" {
		t.Fatalf("final boot: journal mode %q, want durable", mode)
	}
	if rec.Resumed == 0 {
		t.Fatalf("final boot: no job resumed from a checkpoint: %+v", rec)
	}
	for id, engine := range acked {
		done := waitTerminal(t, ts, id, 0)
		if done.State != "done" {
			t.Fatalf("recovered job %s (engine %s) ended %q (error %q)", id, engine, done.State, done.Error)
		}
		if !reflect.DeepEqual(done.Result, want[engine]) {
			t.Errorf("recovered job %s (engine %s) diverged:\nuninterrupted: %+v\nrecovered:     %+v",
				id, engine, want[engine], done.Result)
		}
	}

	jh := healthJobs(t, ts)
	if jh.JournalMode != "durable" {
		t.Errorf("healthz journal mode %q, want durable", jh.JournalMode)
	}
	if jh.Recovery.Resumed == 0 {
		t.Errorf("healthz reports no resumed jobs: %+v", jh.Recovery)
	}
}

// tearJournalTail appends a partial frame to the newest WAL segment,
// as an interrupted write would.
func tearJournalTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	// A plausible length word with no payload behind it.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatalf("tear tail: %v", err)
	}
	f.Close()
}

// TestJobQueuedSurviveRestart: queued jobs stopped behind a busy
// worker come back on the next boot with their tenants and order, and
// terminal results are restored still-pollable.
func TestJobQueuedSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir, nil)
	cfg.JobWorkers = 1
	srv := New(cfg)
	ts := httptest.NewServer(srv)

	// A finished job whose result must survive the restart.
	_, doneJob := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	finished := waitTerminal(t, ts, doneJob.ID, doneJob.Gen)
	if finished.State != "done" {
		t.Fatalf("setup job ended %q", finished.State)
	}

	// Occupy the single worker, then queue jobs behind it.  Each differs
	// in source from helloSrc and from the others, so none completes at
	// submission from the finished job's cache entry.
	_, blocker := submitJob(t, ts, crashJobReq("translated"))
	waitCycles(t, ts, blocker.ID, 100_000)
	var queued []JobResponse
	for n := 0; n < 3; n++ {
		src := strings.Replace(helloSrc, "s = 0;", fmt.Sprintf("s = %d - %d;", n, n), 1)
		res, jr := submitJob(t, ts, &JobRequest{
			Request: Request{Source: src},
			Tenant:  fmt.Sprintf("tenant-%d", n),
		})
		if res.status != http.StatusAccepted || jr.State != "queued" {
			t.Fatalf("submit status %d state %q, want 202 queued", res.status, jr.State)
		}
		queued = append(queued, jr)
	}
	srv.crash()
	ts.Close()
	srv.Close()

	srv2, ts2 := newTestServer(t, durableCfg(dir, nil))
	rec, _ := srv2.Recovery()
	if got := rec.Requeued + rec.Resumed; got != 4 { // blocker + 3 queued
		t.Fatalf("recovered %d queued/running jobs, want 4 (%+v)", got, rec)
	}
	if rec.Restored != 1 {
		t.Fatalf("restored %d terminal jobs, want 1 (%+v)", rec.Restored, rec)
	}
	// The finished job's result is still pollable without re-running.
	status, again := getJob(t, ts2, doneJob.ID, "")
	if status != http.StatusOK || again.State != "done" {
		t.Fatalf("restored terminal job: status %d state %q", status, again.State)
	}
	if !reflect.DeepEqual(again.Result, finished.Result) {
		t.Fatalf("restored result differs:\nbefore: %+v\nafter:  %+v", finished.Result, again.Result)
	}
	// Every queued job keeps its tenant and runs to completion.
	for _, q := range queued {
		done := waitTerminal(t, ts2, q.ID, 0)
		if done.State != "done" || done.Result == nil || done.Result.Output != "45" {
			t.Fatalf("requeued job %s ended %q result %+v", q.ID, done.State, done.Result)
		}
		if done.Tenant != q.Tenant {
			t.Fatalf("requeued job %s tenant %q, want %q", q.ID, done.Tenant, q.Tenant)
		}
	}
}

// TestJobCheckpointCorruptFallback: when every on-disk checkpoint is
// bit-flipped while the server is down, recovery falls back to a clean
// restart — the job still completes with the uninterrupted result.
func TestJobCheckpointCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	want := baselineRun(t, crashJobReq("translated"))

	srv := New(durableCfg(dir, nil))
	ts := httptest.NewServer(srv)
	res, jr := submitJob(t, ts, crashJobReq("translated"))
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d", res.status)
	}
	waitCycles(t, ts, jr.ID, 2_000_000)
	srv.crash()
	ts.Close()
	srv.Close()

	blobs, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*.ckpt"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no checkpoints spilled (err %v)", err)
	}
	for _, path := range blobs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatalf("corrupt %s: %v", path, err)
		}
	}

	_, ts2 := newTestServer(t, durableCfg(dir, nil))
	done := waitTerminal(t, ts2, jr.ID, 0)
	if done.State != "done" {
		t.Fatalf("job ended %q (error %q) after checkpoint corruption", done.State, done.Error)
	}
	if !reflect.DeepEqual(done.Result, want) {
		t.Errorf("clean-restart fallback diverged:\nuninterrupted: %+v\nrecovered:     %+v", want, done.Result)
	}
}

// TestRecoveredJobUnknownEngine: a queued job journaled under an
// engine name the simulator does not know ("fast") skipped submit-time
// validation, so the run itself must reject it: the job executes once,
// fails through the ordinary run-failure path with the engine error,
// and is not retried.
func TestRecoveredJobUnknownEngine(t *testing.T) {
	dir := t.TempDir()
	st, _, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	req := &Request{Source: helloSrc, Machine: &MachineSpec{Engine: "fast"}}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const id = "00000000000000fa"
	if err := st.Put(durable.JobRecord{Seq: 1, ID: id, State: "queued", Request: raw}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	var ec execCounter
	cfg := durableCfg(dir, nil)
	cfg.CompileHook = ec.hook
	srv, ts := newTestServer(t, cfg)
	if rec, _ := srv.Recovery(); rec.Requeued != 1 {
		t.Fatalf("recovery requeued %d jobs, want 1 (%+v)", rec.Requeued, rec)
	}
	done := waitTerminal(t, ts, id, 0)
	if done.State != "failed" {
		t.Fatalf("job ended %q (result %+v), want failed", done.State, done.Result)
	}
	if !strings.Contains(done.Error, `unknown engine "fast"`) ||
		!strings.Contains(done.Error, "auto, translated, or reference") {
		t.Errorf("job error %q, want the unknown-engine error naming the valid engines", done.Error)
	}
	if done.Attempts != 0 {
		t.Errorf("job attempts %d, want 0 (no retries)", done.Attempts)
	}
	if got := ec.count(req.cacheKey(kindRun)); got != 1 {
		t.Errorf("job executed %d times, want 1", got)
	}
}

// TestJobJournalDegraded: an ordinary journal I/O failure degrades the
// tier to memory-only — submissions still ack, jobs still complete —
// and both /healthz and /metrics report the degradation.
func TestJobJournalDegraded(t *testing.T) {
	dir := t.TempDir()
	// The very first append fails (a full disk, say); everything after
	// is memory-only.
	faults := &durable.FaultPoints{FailAt: 1}
	_, ts := newTestServer(t, durableCfg(dir, faults))

	res, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	if res.status != http.StatusAccepted {
		t.Fatalf("degraded submit status %d: %s", res.status, res.body)
	}
	done := waitTerminal(t, ts, jr.ID, jr.Gen)
	if done.State != "done" || done.Result == nil || done.Result.Output != "45" {
		t.Fatalf("degraded job ended %q result %+v", done.State, done.Result)
	}

	jh := healthJobs(t, ts)
	if jh.JournalMode != "degraded" {
		t.Fatalf("healthz journal mode %q, want degraded (%+v)", jh.JournalMode, jh)
	}
	if jh.DroppedWrites == 0 {
		t.Fatal("healthz reports no dropped writes in degraded mode")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	body := string(raw)
	for _, w := range []string{
		`wmserved_journal_mode{mode="degraded"} 1`,
		`wmserved_journal_mode{mode="durable"} 0`,
		"wmserved_journal_dropped_writes_total",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestJobPollDrainReleases: a held-open long-poll answers promptly
// (with Connection: close) the moment drain begins, instead of pinning
// graceful shutdown for the rest of its wait window.
func TestJobPollDrainReleases(t *testing.T) {
	cfg := Config{JobWorkers: 1, JobProgressEvery: time.Hour}
	srv, ts := newTestServer(t, cfg)
	// Occupy the worker so the second job stays queued, its generation
	// frozen — the long-poll genuinely blocks.
	submitJob(t, ts, crashJobReq("translated"))
	_, queued := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})

	type pollResult struct {
		status  int
		close   bool
		elapsed time.Duration
		err     error
	}
	got := make(chan pollResult, 1)
	start := time.Now()
	go func() {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/jobs/%s?gen=%d&wait=20s", queued.ID, queued.Gen))
		r := pollResult{elapsed: time.Since(start), err: err}
		if err == nil {
			r.status = resp.StatusCode
			// The Go client consumes the hop-by-hop Connection: close
			// header into resp.Close.
			r.close = resp.Close
			resp.Body.Close()
		}
		got <- r
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park
	srv.Drain()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("long-poll: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("long-poll status %d", r.status)
		}
		if r.elapsed > 5*time.Second {
			t.Fatalf("long-poll held %v past drain", r.elapsed)
		}
		if !r.close {
			t.Error("long-poll response did not ask to close the connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll still parked 10s after drain")
	}
}
