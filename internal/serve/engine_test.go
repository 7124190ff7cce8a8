package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunEngineSelection: every engine name is accepted, both engines
// produce the same answer, and an unknown engine is rejected with a
// message naming the valid set.
func TestRunEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var want RunResponse
	for _, engine := range []string{"", "auto", "translated", "reference"} {
		req := &Request{Source: helloSrc}
		if engine != "" {
			req.Machine = &MachineSpec{Engine: engine}
		}
		res := post(t, ts, "/run", req)
		if res.status != http.StatusOK {
			t.Fatalf("engine %q: status %d, body %s", engine, res.status, res.body)
		}
		var rr RunResponse
		if err := json.Unmarshal(res.body, &rr); err != nil {
			t.Fatalf("engine %q: bad JSON: %v", engine, err)
		}
		if engine == "" {
			want = rr
			continue
		}
		if rr.Output != want.Output || rr.Cycles != want.Cycles || rr.Instructions != want.Instructions {
			t.Errorf("engine %q diverged: output=%q cycles=%d instrs=%d, want output=%q cycles=%d instrs=%d",
				engine, rr.Output, rr.Cycles, rr.Instructions, want.Output, want.Cycles, want.Instructions)
		}
	}

	for _, engine := range []string{"quantum", "fast"} {
		res := post(t, ts, "/run", &Request{Source: helloSrc, Machine: &MachineSpec{Engine: engine}})
		if res.status != http.StatusBadRequest {
			t.Fatalf("engine %q: status %d, want 400", engine, res.status)
		}
		var er ErrorResponse
		if err := json.Unmarshal(res.body, &er); err != nil {
			t.Fatalf("engine %q: bad error body: %v", engine, err)
		}
		if !strings.Contains(er.Error, "auto, translated, or reference") {
			t.Errorf("engine %q: message should name the valid engines, got %q", engine, er.Error)
		}
	}
}

// TestEngineSpellingsShareCacheEntry: every spelling of the default
// engine resolves to one content address, so the program executes once
// and the later spellings are cache hits.
func TestEngineSpellingsShareCacheEntry(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{CompileHook: func(Key) { execs.Add(1) }})

	var body []byte
	for n, spec := range []*MachineSpec{nil, {}, {Engine: "auto"}, {Engine: "translated"}} {
		res := post(t, ts, "/run", &Request{Source: helloSrc, Machine: spec})
		if res.status != http.StatusOK {
			t.Fatalf("spelling %d: status %d, body %s", n, res.status, res.body)
		}
		want := "hit"
		if n == 0 {
			want = "miss"
		}
		if res.cache != want {
			t.Errorf("spelling %d: X-Cache %q, want %q", n, res.cache, want)
		}
		if n == 0 {
			body = res.body
		} else if !bytes.Equal(res.body, body) {
			t.Errorf("spelling %d: body differs from the first response", n)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("%d executions across the engine spellings, want 1", got)
	}
}

// TestEngineRunsMetric: served runs show up in
// wmserved_engine_runs_total under the engine that actually executed
// them (auto resolves to translated), and the translation-cache
// families are exported.
func TestEngineRunsMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Two default-engine runs and one explicit reference run.  Distinct
	// machine configs defeat the response cache so each run executes.
	for _, spec := range []*MachineSpec{nil, {MemLatency: 17, Engine: "auto"}, {MemLatency: 23, Engine: "reference"}} {
		res := post(t, ts, "/run", &Request{Source: helloSrc, Machine: spec})
		if res.status != http.StatusOK {
			t.Fatalf("run: status %d, body %s", res.status, res.body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)

	for _, want := range []string{
		`wmserved_engine_runs_total{engine="translated"} 2`,
		`wmserved_engine_runs_total{engine="reference"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, family := range []string{
		"wmserved_translation_cache_entries",
		"wmserved_translation_cache_cap",
		"wmserved_translation_cache_hits_total",
		"wmserved_translation_cache_misses_total",
		"wmserved_translation_cache_evictions_total",
	} {
		if !strings.Contains(text, "\n"+family+" ") {
			t.Errorf("metrics missing family %s", family)
		}
	}
}

// TestJobResultsMatchSync: a burst of jobs from two tenants on one job
// worker completes with results identical to sync /run, and each job
// executes exactly once.  Each job has its own source, so none
// completes from the response cache.
func TestJobResultsMatchSync(t *testing.T) {
	// Heavy enough to span many slices, light enough to finish promptly
	// under the race detector.
	jobSrc := func(n int) string {
		return fmt.Sprintf(`int main(void) {
    int i; double s;
    s = %d.0;
    for (i = 0; i < 200000; i++) s = s + i * 0.5;
    putd(s);
    return 0;
}`, n)
	}
	const jobs = 4
	_, syncSrv := newTestServer(t, Config{})
	want := make([]RunResponse, jobs)
	for n := range want {
		res := post(t, syncSrv, "/run", &Request{Source: jobSrc(n)})
		if res.status != http.StatusOK {
			t.Fatalf("dedicated run %d: status %d, body %s", n, res.status, res.body)
		}
		if err := json.Unmarshal(res.body, &want[n]); err != nil {
			t.Fatal(err)
		}
	}

	var ec execCounter
	_, ts := newTestServer(t, Config{JobWorkers: 1, CompileHook: ec.hook})
	ids := make([]string, jobs)
	keys := make([]Key, jobs)
	for n := range ids {
		// Two tenants give the scheduler two lanes to rotate over.
		req := &JobRequest{Request: Request{Source: jobSrc(n)}, Tenant: fmt.Sprintf("t%d", n%2)}
		res, jr := submitJob(t, ts, req)
		if res.status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, body %s", n, res.status, res.body)
		}
		ids[n], keys[n] = jr.ID, req.cacheKey(kindRun)
	}
	for n, id := range ids {
		jr := waitTerminal(t, ts, id, 0)
		if jr.State != "done" {
			t.Fatalf("job %d state %q, want done (error %q)", n, jr.State, jr.Error)
		}
		if jr.Result == nil {
			t.Fatalf("job %d: no result", n)
		}
		if jr.Result.Output != want[n].Output || jr.Result.Cycles != want[n].Cycles {
			t.Errorf("job %d diverged from sync run: output=%q cycles=%d, want output=%q cycles=%d",
				n, jr.Result.Output, jr.Result.Cycles, want[n].Output, want[n].Cycles)
		}
		if got := ec.count(keys[n]); got != 1 {
			t.Errorf("job %d executed %d times, want 1", n, got)
		}
	}
}
