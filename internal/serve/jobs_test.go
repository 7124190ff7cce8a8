package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// slowSrc simulates long enough (tens of millions of naive-code
// cycles at O0) that a job is observably running before it finishes.
const slowSrc = `int main(void) {
    int i; double s;
    s = 0.0;
    for (i = 0; i < 2000000; i++) s = s + i * 0.5;
    putd(s);
    return 0;
}`

func submitJob(t *testing.T, ts *httptest.Server, req *JobRequest) (reply, JobResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal job request: %v", err)
	}
	res := postRaw(t, ts, "/jobs", body)
	var jr JobResponse
	if res.status == http.StatusAccepted {
		if err := json.Unmarshal(res.body, &jr); err != nil {
			t.Fatalf("bad job JSON: %v\n%s", err, res.body)
		}
	}
	return res, jr
}

func getJob(t *testing.T, ts *httptest.Server, id, query string) (int, JobResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + query)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("bad job JSON: %v", err)
		}
	}
	return resp.StatusCode, jr
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, JobResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	if err != nil {
		t.Fatalf("build DELETE: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("bad job JSON: %v", err)
		}
	}
	return resp.StatusCode, jr
}

// waitTerminal long-polls generations until the job reaches a terminal
// state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, gen int64) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, jr := getJob(t, ts, id, fmt.Sprintf("?gen=%d&wait=2s", gen))
		if status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
		switch jr.State {
		case "done", "failed", "canceled":
			return jr
		}
		gen = jr.Gen
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobResponse{}
}

// TestJobPollTerminalAtOnce: a terminal job's generation never moves
// again, so a long-poll at its own generation answers at once instead
// of parking for the whole wait.
func TestJobPollTerminalAtOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	done := runJobToEnd(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	if done.State != "done" {
		t.Fatalf("job ended %q (error %q)", done.State, done.Error)
	}
	start := time.Now()
	status, again := getJob(t, ts, done.ID, fmt.Sprintf("?gen=%d&wait=2s", done.Gen))
	if el := time.Since(start); el >= 100*time.Millisecond {
		t.Fatalf("poll of a done job at its own gen took %v, want under 100ms", el)
	}
	if status != http.StatusOK || again.State != "done" || again.Gen != done.Gen {
		t.Fatalf("poll: status %d state %q gen %d, want 200 done %d", status, again.State, again.Gen, done.Gen)
	}
}

// TestJobLifecycle: submit → (queued|running) → long-poll to done →
// result carries the run response → delete removes it.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{JobProgressEvery: time.Millisecond})

	res, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d, body %s", res.status, res.body)
	}
	if jr.ID == "" || (jr.State != "queued" && jr.State != "running") {
		t.Fatalf("submit returned %+v", jr)
	}

	done := waitTerminal(t, ts, jr.ID, jr.Gen)
	if done.State != "done" {
		t.Fatalf("terminal state %q (error %q), want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Output != "45" {
		t.Fatalf("result %+v, want output 45", done.Result)
	}
	if done.Result.Cycles <= 0 || done.Result.Instructions <= 0 {
		t.Fatalf("result missing stats: %+v", done.Result)
	}
	if done.Progress == nil {
		t.Fatalf("terminal job carries no progress snapshot")
	}
	if done.Gen <= jr.Gen {
		t.Fatalf("gen did not advance: submit %d, terminal %d", jr.Gen, done.Gen)
	}
	if done.ExpiresInSeconds <= 0 {
		t.Fatalf("terminal job has no TTL: %+v", done)
	}

	// A plain GET (no long-poll) returns the same terminal state.
	if status, again := getJob(t, ts, jr.ID, ""); status != http.StatusOK || again.State != "done" {
		t.Fatalf("re-GET: status %d state %q", status, again.State)
	}

	// DELETE on a terminal job removes it immediately.
	if status, _ := deleteJob(t, ts, jr.ID); status != http.StatusOK {
		t.Fatalf("delete status %d", status)
	}
	if status, _ := getJob(t, ts, jr.ID, ""); status != http.StatusNotFound {
		t.Fatalf("status %d after delete, want 404", status)
	}
}

// TestJobFailure: a program that deadlocks surfaces as state "failed"
// with the simulator's diagnostic, not as an HTTP error.
func TestJobFailure(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// MaxCycles traps mid-run: a property of the request, so the job
	// fails cleanly.
	res, jr := submitJob(t, ts, &JobRequest{
		Request: Request{Source: helloSrc, Machine: &MachineSpec{MaxCycles: 10}},
	})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d", res.status)
	}
	done := waitTerminal(t, ts, jr.ID, jr.Gen)
	if done.State != "failed" {
		t.Fatalf("state %q, want failed", done.State)
	}
	if done.Error == "" || done.Result != nil {
		t.Fatalf("failed job: error %q result %+v", done.Error, done.Result)
	}
}

// TestJobCancelRunning: DELETE on a running job cancels the
// simulation promptly.
func TestJobCancelRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{JobProgressEvery: time.Millisecond})
	res, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: slowSrc, Level: intp(0)}})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d", res.status)
	}
	// Wait for it to be observably running (or already finished on a
	// very fast host — then the test degenerates to terminal delete).
	gen := jr.Gen
	for {
		status, cur := getJob(t, ts, jr.ID, fmt.Sprintf("?gen=%d&wait=2s", gen))
		if status != http.StatusOK {
			t.Fatalf("poll status %d", status)
		}
		gen = cur.Gen
		if cur.State != "queued" {
			break
		}
	}
	start := time.Now()
	if status, _ := deleteJob(t, ts, jr.ID); status != http.StatusOK {
		t.Fatalf("delete status %d", status)
	}
	done := waitTerminal(t, ts, jr.ID, 0)
	if done.State != "canceled" && done.State != "done" {
		t.Fatalf("state %q after cancel, want canceled (or done on a fast host)", done.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v", elapsed)
	}
}

// TestJobCancelQueued: with a single busy worker, a queued job cancels
// without ever running.
func TestJobCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	_, blocker := submitJob(t, ts, &JobRequest{Request: Request{Source: slowSrc, Level: intp(0)}})
	res, queued := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit status %d", res.status)
	}
	status, jr := deleteJob(t, ts, queued.ID)
	if status != http.StatusOK {
		t.Fatalf("delete status %d", status)
	}
	if jr.State != "canceled" {
		t.Fatalf("state %q after queued cancel, want canceled", jr.State)
	}
	deleteJob(t, ts, blocker.ID)
}

// TestJobAdmission: the total queue cap and the per-tenant cap both
// shed with 429, and the caps are independent.
func TestJobAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 2, JobTenantQueue: 1})
	// Occupy the single worker so subsequent submissions stay queued.
	_, blocker := submitJob(t, ts, &JobRequest{Request: Request{Source: slowSrc, Level: intp(0)}})
	waitState := func(id string, not string) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, cur := getJob(t, ts, id, ""); cur.State != not {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("job %s still %s", id, not)
	}
	waitState(blocker.ID, "queued")

	res, _ := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}, Tenant: "a"})
	if res.status != http.StatusAccepted {
		t.Fatalf("tenant a submit status %d", res.status)
	}
	// Tenant a is at its per-tenant cap.
	res, _ = submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}, Tenant: "a"})
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("tenant a over-cap status %d, want 429", res.status)
	}
	if !strings.Contains(string(res.body), "tenant") {
		t.Fatalf("over-cap body %s, want tenant message", res.body)
	}
	// A different tenant still gets in...
	res, _ = submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}, Tenant: "b"})
	if res.status != http.StatusAccepted {
		t.Fatalf("tenant b submit status %d", res.status)
	}
	// ...until the total cap (2 queued) sheds everyone.
	res, _ = submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}, Tenant: "c"})
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("over total cap status %d, want 429", res.status)
	}
	deleteJob(t, ts, blocker.ID)
}

// TestJobTTLExpiry: terminal jobs disappear after JobTTL.
func TestJobTTLExpiry(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 50 * time.Millisecond})
	_, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	done := waitTerminal(t, ts, jr.ID, jr.Gen)
	if done.State != "done" {
		t.Fatalf("state %q, want done", done.State)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if status, _ := getJob(t, ts, jr.ID, ""); status == http.StatusNotFound {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("terminal job never expired")
}

// TestSoakJobs drives the job tier with the wmload generator: every
// iteration submits, long-polls, and occasionally cancels.  The default
// duration keeps `go test` quick; CI's race-soak job sets
// WMSERVE_SOAK=30s.
func TestSoakJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak in -short mode")
	}
	dur := 2 * time.Second
	if env := os.Getenv("WMSERVE_SOAK"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad WMSERVE_SOAK %q: %v", env, err)
		}
		dur = d
	}
	_, ts := newTestServer(t, Config{
		JobWorkers:       4,
		JobQueueDepth:    64,
		JobTenantQueue:   32,
		JobProgressEvery: time.Millisecond,
	})
	rep, err := RunLoad(context.Background(), LoadConfig{
		BaseURL:     ts.URL,
		Duration:    dur,
		Concurrency: 8,
		JobFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.String())
	if rep.Errors > 0 {
		t.Fatalf("%d transport errors", rep.Errors)
	}
	if rep.ByJobState["done"] == 0 {
		t.Fatal("soak completed no jobs")
	}
	if rep.ByEndpoint["jobs"].Requests == 0 || rep.ByEndpoint["jobs-poll"].Requests == 0 {
		t.Fatalf("per-endpoint latency missing job traffic: %+v", rep.ByEndpoint)
	}
}

// TestJobMetrics: the job tier shows up in /metrics.
func TestJobMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	waitTerminal(t, ts, jr.ID, jr.Gen)
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
	for _, want := range []string{
		`wmserved_jobs_total{event="submitted"} 1`,
		`wmserved_jobs_total{event="completed"} 1`,
		"wmserved_jobs_queued",
		"wmserved_jobs_running",
		"wmserved_jobs_held",
		`wmserved_request_duration_seconds_count{endpoint="jobs"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
