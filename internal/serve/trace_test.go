package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wmstream/internal/obs"
)

// End-to-end tracing tests: the acceptance bar is that one POST /jobs
// yields a single retrievable trace covering admission, queue wait,
// the run, per-pass compile children, at least one sim slice, and the
// durable-journal appends — and that the Perfetto export of it loads
// service and sim spans on one timeline.

func getTrace(t *testing.T, ts *httptest.Server, id string) obs.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d %s", id, resp.StatusCode, body)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, body)
	}
	return snap
}

// spansByName indexes a snapshot; multiple same-named spans keep the
// first, with the count in the second map.
func spansByName(snap obs.TraceSnapshot) (map[string]obs.SpanSnapshot, map[string]int) {
	byName := map[string]obs.SpanSnapshot{}
	counts := map[string]int{}
	for _, sp := range snap.Spans {
		if _, ok := byName[sp.Name]; !ok {
			byName[sp.Name] = sp
		}
		counts[sp.Name]++
	}
	return byName, counts
}

func TestJobTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{JobDir: t.TempDir()})

	res, jr := submitJob(t, ts, &JobRequest{
		Request: Request{Source: streamSrc, Level: intp(2)},
		Tenant:  "trace-test",
	})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", res.status, res.body)
	}
	if jr.TraceID == "" {
		t.Fatal("job response carries no trace_id")
	}
	final := waitTerminal(t, ts, jr.ID, jr.Gen)
	if final.State != "done" {
		t.Fatalf("job ended %q: %+v", final.State, final)
	}

	// The trace finishes on the terminal transition; it may still be
	// getting its final spans closed, so retry briefly.
	var snap obs.TraceSnapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap = getTrace(t, ts, jr.TraceID)
		if snap.Finished || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !snap.Finished {
		t.Fatalf("trace never finished: %+v", snap)
	}
	if snap.Name != "job" {
		t.Fatalf("trace name %q, want job", snap.Name)
	}

	byName, counts := spansByName(snap)
	for _, want := range []string{"admission", "queue.wait", "run", "compile", "sim", "sim.slice", "journal.append"} {
		if counts[want] == 0 {
			t.Errorf("trace missing span %q; have %v", want, counts)
		}
	}
	// Per-pass compile children bridged from the compiler's own stats.
	passes := 0
	for name := range counts {
		if strings.HasPrefix(name, "pass:") {
			passes += counts[name]
		}
	}
	if passes == 0 {
		t.Errorf("no pass:* compile children; spans: %v", counts)
	}
	if byName["sim.slice"].Kind != "sim" {
		t.Errorf("sim.slice kind %q, want sim", byName["sim.slice"].Kind)
	}
	if byName["compile"].Kind != "compile" {
		t.Errorf("compile kind %q, want compile", byName["compile"].Kind)
	}
	if got := snap.Spans[0].Attrs["job_id"]; got != jr.ID {
		t.Errorf("root job_id %q, want %q", got, jr.ID)
	}
	if got := snap.Spans[0].Attrs["tenant"]; got != "trace-test" {
		t.Errorf("root tenant %q, want trace-test", got)
	}
	if byName["journal.append"].Attrs["state"] == "" {
		t.Errorf("journal.append span lacks a state attr: %+v", byName["journal.append"])
	}
	// The root must record the terminal state.
	if got := snap.Spans[0].Attrs["state"]; got != "done" {
		t.Errorf("root state attr %q, want done", got)
	}

	// Perfetto export: valid trace-event JSON with service spans
	// (pid 3) and sim unit segments (pid 2) on one timeline.
	resp, err := http.Get(ts.URL + "/debug/traces/" + jr.TraceID + "?format=perfetto")
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfetto export: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pbody, &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	pids := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid]++
		}
	}
	if pids[3] == 0 {
		t.Errorf("no service (pid 3) events: %v", pids)
	}
	if pids[2] == 0 {
		t.Errorf("no sim (pid 2) events: %v", pids)
	}
}

// TestJobTraceSurvivesRestart crashes the server mid-job and checks
// the restarted server continues the job under the SAME trace ID, with
// the resume marked, so one trace shows the whole lifecycle across the
// crash.
func TestJobTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv := New(durableCfg(dir, nil))
	ts := httptest.NewServer(srv)

	res, jr := submitJob(t, ts, crashJobReq("translated"))
	if res.status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", res.status, res.body)
	}
	if jr.TraceID == "" {
		t.Fatal("no trace_id on submit")
	}
	waitCycles(t, ts, jr.ID, 500_000)
	srv.crash()
	ts.Close()
	srv.Close()

	_, ts2 := newTestServer(t, durableCfg(dir, nil))
	done := waitTerminal(t, ts2, jr.ID, 0)
	if done.State != "done" {
		t.Fatalf("recovered job ended %q (%q)", done.State, done.Error)
	}
	if done.TraceID != jr.TraceID {
		t.Fatalf("trace ID changed across restart: %q -> %q", jr.TraceID, done.TraceID)
	}

	snap := getTrace(t, ts2, jr.TraceID)
	if !snap.Finished {
		t.Fatalf("resumed trace not finished: %+v", snap)
	}
	if snap.Spans[0].Attrs["resumed"] != "true" {
		t.Errorf("resumed trace lacks resumed=true on its root: %v", snap.Spans[0].Attrs)
	}
	if snap.Spans[0].Attrs["state"] != "done" {
		t.Errorf("resumed trace root state %q, want done", snap.Spans[0].Attrs["state"])
	}
	// The rebooted server's cache is empty, so the job really resumed
	// from its checkpoint rather than completing from the cache.
	if snap.Spans[0].Attrs["cache"] != "miss" {
		t.Errorf("resumed trace root cache %q, want miss", snap.Spans[0].Attrs["cache"])
	}
	_, counts := spansByName(snap)
	for _, want := range []string{"queue.wait", "run", "sim.slice"} {
		if counts[want] == 0 {
			t.Errorf("resumed trace missing %q; have %v", want, counts)
		}
	}
}

// TestSyncTraceparentPropagation sends a sampled traceparent with a
// /run request and checks the response headers link back to the same
// trace, the retained trace is marked remote, and Server-Timing
// reports stage durations.
func TestSyncTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	tid := obs.NewTraceID()
	parent := obs.NewSpanID()
	body := `{"source":` + jsonString(streamSrc) + `,"level":2}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.FormatTraceparent(tid, parent, true))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d", resp.StatusCode)
	}

	if got := resp.Header.Get("X-WM-Trace-Id"); got != tid.String() {
		t.Fatalf("X-WM-Trace-Id %q, want %q", got, tid)
	}
	rid, _, sampled, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || rid != tid || !sampled {
		t.Fatalf("response traceparent %q does not continue trace %s", resp.Header.Get("Traceparent"), tid)
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "total;dur=") || !strings.Contains(st, "compile;dur=") {
		t.Fatalf("Server-Timing %q lacks stage durations", st)
	}
	stages := parseServerTiming(st)
	if stages["total"] <= 0 || stages["compile"] <= 0 {
		t.Fatalf("parsed stages %v", stages)
	}

	snap := getTrace(t, ts, tid.String())
	if !snap.Remote {
		t.Fatal("trace not marked remote despite inbound traceparent")
	}
	if snap.ParentSpan != parent.String() {
		t.Fatalf("parent span %q, want %q", snap.ParentSpan, parent)
	}
	byName, _ := spansByName(snap)
	if _, ok := byName["cache.lookup"]; !ok {
		t.Errorf("sync trace missing cache.lookup: %+v", snap.Spans)
	}
	if _, ok := byName["sim"]; !ok {
		t.Errorf("sync trace missing sim span: %+v", snap.Spans)
	}
}

// TestTraceIndexAndStatusz smoke-checks the two human entry points.
func TestTraceIndexAndStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(1)})

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d", resp.StatusCode)
	}
	var idx obs.Index
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("bad index JSON: %v\n%s", err, body)
	}
	if idx.Stats.Started == 0 || len(idx.Recent) == 0 {
		t.Fatalf("index empty after traffic: %+v", idx.Stats)
	}

	resp, err = http.Get(ts.URL + "/debug/statusz")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/statusz: %d", resp.StatusCode)
	}
	for _, want := range []string{"wmserved", "Traces", "Cache", "Pool"} {
		if !strings.Contains(string(page), want) {
			t.Errorf("statusz missing %q", want)
		}
	}
}

// TestTracingDisabled turns the collector off and checks the serve
// paths still work and the debug endpoints answer sanely.
func TestTracingDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceRing: -1})
	res := post(t, ts, "/run", &Request{Source: helloSrc, Level: intp(1)})
	if res.status != http.StatusOK {
		t.Fatalf("/run with tracing off: %d %s", res.status, res.body)
	}
	_, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc}})
	if jr.ID == "" {
		t.Fatal("job submit failed with tracing off")
	}
	waitTerminal(t, ts, jr.ID, jr.Gen)
	if jr.TraceID != "" {
		t.Fatalf("job reported trace_id %q with tracing off", jr.TraceID)
	}
	// The index endpoint answers — a clear "disabled" rather than a
	// confusing empty payload.
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces with tracing off: %d, want 404", resp.StatusCode)
	}
}

// jsonString marshals s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
