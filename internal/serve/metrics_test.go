package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// This file holds a strict exposition-format test for the hand-rolled
// Prometheus text exporter: every line must parse under the 0.0.4 line
// grammar, every sample family must be preceded by its HELP and TYPE,
// and counters must be monotone across scrapes.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels string // raw, inside the braces
	value  float64
	line   int
}

// promScrape is a parsed exposition payload.
type promScrape struct {
	types   map[string]string // family -> counter|gauge|histogram|...
	helps   map[string]string
	samples []promSample
}

// familyOf strips the histogram/summary suffixes a sample name may
// carry, yielding the declared family name.
func familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f
		}
	}
	return name
}

// parsePromText parses an exposition payload, failing the test on any
// grammar violation: bad names, malformed labels, unparsable values,
// samples before (or without) their HELP/TYPE headers, or duplicate
// header declarations.
func parsePromText(t *testing.T, text string) *promScrape {
	t.Helper()
	sc := &promScrape{types: map[string]string{}, helps: map[string]string{}}
	validTypes := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
	for i, line := range strings.Split(text, "\n") {
		n := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || parts[0] != "#" {
				t.Fatalf("line %d: malformed comment %q", n, line)
			}
			switch parts[1] {
			case "HELP":
				if !metricNameRe.MatchString(parts[2]) {
					t.Fatalf("line %d: bad metric name in HELP: %q", n, line)
				}
				if len(parts) < 4 || parts[3] == "" {
					t.Fatalf("line %d: empty HELP text: %q", n, line)
				}
				if _, dup := sc.helps[parts[2]]; dup {
					t.Fatalf("line %d: duplicate HELP for %s", n, parts[2])
				}
				sc.helps[parts[2]] = parts[3]
			case "TYPE":
				if !metricNameRe.MatchString(parts[2]) {
					t.Fatalf("line %d: bad metric name in TYPE: %q", n, line)
				}
				if len(parts) < 4 || !validTypes[parts[3]] {
					t.Fatalf("line %d: bad TYPE %q", n, line)
				}
				if _, dup := sc.types[parts[2]]; dup {
					t.Fatalf("line %d: duplicate TYPE for %s", n, parts[2])
				}
				if _, ok := sc.helps[parts[2]]; !ok {
					t.Fatalf("line %d: TYPE for %s precedes its HELP", n, parts[2])
				}
				sc.types[parts[2]] = parts[3]
			default:
				t.Fatalf("line %d: unknown comment keyword %q", n, line)
			}
			continue
		}
		sample := parseSampleLine(t, n, line)
		fam := familyOf(sample.name)
		typ, ok := sc.types[fam]
		if !ok {
			t.Fatalf("line %d: sample %s has no preceding TYPE for family %s", n, sample.name, fam)
		}
		if sample.name != fam && typ != "histogram" && typ != "summary" {
			t.Fatalf("line %d: suffixed sample %s under non-histogram family %s", n, sample.name, fam)
		}
		sc.samples = append(sc.samples, sample)
	}
	return sc
}

// parseSampleLine validates `name{label="v",...} value` (labels
// optional) and returns the parsed sample.
func parseSampleLine(t *testing.T, n int, line string) promSample {
	t.Helper()
	rest := line
	name := rest
	labels := ""
	if open := strings.IndexByte(rest, '{'); open >= 0 {
		name = rest[:open]
		closeIdx := strings.LastIndexByte(rest, '}')
		if closeIdx < open {
			t.Fatalf("line %d: unbalanced braces: %q", n, line)
		}
		labels = rest[open+1 : closeIdx]
		rest = name + rest[closeIdx+1:]
		parseLabels(t, n, labels)
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		t.Fatalf("line %d: want `name value`, got %q", n, line)
	}
	name = strings.TrimSuffix(fields[0], "{}")
	if !metricNameRe.MatchString(name) {
		t.Fatalf("line %d: bad sample name %q", n, name)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", n, fields[1], err)
	}
	return promSample{name: name, labels: labels, value: v, line: n}
}

// parseLabels validates a comma-separated `key="value"` list.  The
// exporter never emits escaped quotes except via %q, so a simple
// quote-aware scan suffices.
func parseLabels(t *testing.T, n int, labels string) {
	t.Helper()
	rest := labels
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			t.Fatalf("line %d: label pair missing '=': %q", n, labels)
		}
		key := rest[:eq]
		if !labelNameRe.MatchString(key) {
			t.Fatalf("line %d: bad label name %q", n, key)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			t.Fatalf("line %d: label %s value not quoted: %q", n, key, labels)
		}
		end := 1
		for end < len(rest) && (rest[end] != '"' || rest[end-1] == '\\') {
			end++
		}
		if end >= len(rest) {
			t.Fatalf("line %d: unterminated label value: %q", n, labels)
		}
		rest = rest[end+1:]
		if rest != "" {
			if rest[0] != ',' {
				t.Fatalf("line %d: label pairs not comma-separated: %q", n, labels)
			}
			rest = rest[1:]
		}
	}
}

func scrape(t *testing.T, ts *httptest.Server) *promScrape {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return parsePromText(t, string(body))
}

// TestMetricsExpositionGrammar drives real traffic, then validates the
// whole /metrics payload line by line.
func TestMetricsExpositionGrammar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(1)})
	post(t, ts, "/run", &Request{Source: streamSrc, Level: intp(3)})
	postRaw(t, ts, "/compile", []byte("{not json"))
	// A job the /run above already answered: a job cache hit.
	if jr := runJobToEnd(t, ts, &JobRequest{Request: Request{Source: streamSrc, Level: intp(3)}}); jr.State != "done" {
		t.Fatalf("job ended %q (error %q)", jr.State, jr.Error)
	}

	sc := scrape(t, ts)
	if len(sc.samples) == 0 {
		t.Fatal("no samples parsed")
	}
	for _, fam := range []string{
		"wmserved_requests_total",
		"wmserved_request_duration_seconds",
		"wmserved_longpoll_wait_seconds",
		"wmserved_slow_requests_total",
		"wmserved_traces_started_total",
		"wmserved_traces_retained_total",
		"wmserved_traces_active",
		"wmserved_go_goroutines",
		"wmserved_go_heap_bytes",
		"wmserved_go_gc_pause_seconds_total",
	} {
		if _, ok := sc.types[fam]; !ok {
			t.Errorf("family %s not declared", fam)
		}
	}
	hits := -1.0
	for _, s := range sc.samples {
		if s.name == "wmserved_jobs_total" && s.labels == `event="cache_hit"` {
			hits = s.value
		}
	}
	if hits != 1 {
		t.Errorf(`wmserved_jobs_total{event="cache_hit"} = %g, want 1`, hits)
	}
	if typ := sc.types["wmserved_jobs_total"]; typ != "counter" {
		t.Errorf("jobs_total type %q, want counter", typ)
	}
	if typ := sc.types["wmserved_longpoll_wait_seconds"]; typ != "histogram" {
		t.Errorf("longpoll wait type %q, want histogram", typ)
	}
	if typ := sc.types["wmserved_go_goroutines"]; typ != "gauge" {
		t.Errorf("goroutines type %q, want gauge", typ)
	}

	// Histogram buckets must be cumulative and agree with _count.
	var lastCum float64 = -1
	var infCum, count float64
	for _, s := range sc.samples {
		if s.name == "wmserved_request_duration_seconds_bucket" && strings.Contains(s.labels, `endpoint="compile"`) {
			if s.value < lastCum {
				t.Fatalf("line %d: bucket not cumulative (%g after %g)", s.line, s.value, lastCum)
			}
			lastCum = s.value
			if strings.Contains(s.labels, `le="+Inf"`) {
				infCum = s.value
			}
		}
		if s.name == "wmserved_request_duration_seconds_count" && strings.Contains(s.labels, `endpoint="compile"`) {
			count = s.value
		}
	}
	if infCum != count || count == 0 {
		t.Fatalf("+Inf bucket %g != count %g (or zero)", infCum, count)
	}

	// Runtime gauges carry live values.
	for _, s := range sc.samples {
		if s.name == "wmserved_go_goroutines" && s.value < 1 {
			t.Fatalf("goroutines gauge %g", s.value)
		}
		if s.name == "wmserved_go_heap_bytes" && s.value <= 0 {
			t.Fatalf("heap gauge %g", s.value)
		}
	}
}

// TestMetricsCountersMonotone scrapes, adds traffic, scrapes again,
// and requires every sample declared as a counter to be non-decreasing
// (histogram buckets and sums included).
func TestMetricsCountersMonotone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(0)})
	first := scrape(t, ts)

	post(t, ts, "/compile", &Request{Source: helloSrc, Level: intp(0)}) // hit
	post(t, ts, "/run", &Request{Source: streamSrc, Level: intp(2)})
	second := scrape(t, ts)

	key := func(s promSample) string { return s.name + "{" + s.labels + "}" }
	prev := map[string]float64{}
	for _, s := range first.samples {
		if first.types[familyOf(s.name)] == "counter" || first.types[familyOf(s.name)] == "histogram" {
			prev[key(s)] = s.value
		}
	}
	checked := 0
	for _, s := range second.samples {
		typ := second.types[familyOf(s.name)]
		if typ != "counter" && typ != "histogram" {
			continue
		}
		before, seen := prev[key(s)]
		if !seen {
			continue // new label set this scrape
		}
		if s.value < before {
			t.Errorf("%s went backwards: %g -> %g", key(s), before, s.value)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no counter samples compared")
	}
	// And the second scrape must reflect the traffic in between.
	total := func(sc *promScrape, name string) (sum float64) {
		for _, s := range sc.samples {
			if s.name == name {
				sum += s.value
			}
		}
		return sum
	}
	if total(second, "wmserved_requests_total") <= total(first, "wmserved_requests_total") {
		t.Fatal("request counter did not advance across scrapes")
	}
}

// TestMetricsSlowExemplar forces a request over a tiny slow threshold
// and checks both the counter and the trace-info breadcrumb appear.
func TestMetricsSlowExemplar(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSlowThreshold: time.Nanosecond})
	post(t, ts, "/run", &Request{Source: streamSrc, Level: intp(2)})

	sc := scrape(t, ts)
	var slowCount float64
	var traceInfo string
	for _, s := range sc.samples {
		if s.name == "wmserved_slow_requests_total" && strings.Contains(s.labels, `endpoint="run"`) {
			slowCount = s.value
		}
		if s.name == "wmserved_slow_request_trace_info" && strings.Contains(s.labels, `endpoint="run"`) {
			traceInfo = s.labels
		}
	}
	if slowCount < 1 {
		t.Fatal("slow request not counted")
	}
	m := regexp.MustCompile(`trace_id="([0-9a-f]{32})"`).FindStringSubmatch(traceInfo)
	if m == nil {
		t.Fatalf("trace exemplar missing or malformed: %q", traceInfo)
	}
	// The breadcrumb must resolve in /debug/traces.
	resp, err := http.Get(ts.URL + "/debug/traces/" + m[1])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exemplar trace %s not retrievable: %d", m[1], resp.StatusCode)
	}
}

// TestMetricsLongpollWaitSeparated long-polls a queued job with a wait
// it must sit out, and checks the parked time lands in the wait
// histogram — not the service-latency histogram the p99 is built from.
func TestMetricsLongpollWaitSeparated(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1})
	// The only job worker runs a long blocker, so the job behind it
	// stays queued at its generation: a poll there parks for the whole
	// wait.  (A poll on a terminal job would answer at once.)
	_, blocker := submitJob(t, ts, crashJobReq("translated"))
	res, jr := submitJob(t, ts, &JobRequest{Request: Request{Source: helloSrc, Level: intp(1)}})
	if res.status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", res.status, res.body)
	}
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s?gen=%d&wait=50ms", ts.URL, jr.ID, jr.Gen))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deleteJob(t, ts, jr.ID)
	deleteJob(t, ts, blocker.ID)

	sc := scrape(t, ts)
	var waitCount, waitSum float64
	for _, s := range sc.samples {
		if s.name == "wmserved_longpoll_wait_seconds_count" {
			waitCount = s.value
		}
		if s.name == "wmserved_longpoll_wait_seconds_sum" {
			waitSum = s.value
		}
	}
	if waitCount == 0 {
		t.Fatal("no long-poll waits recorded")
	}
	_ = waitSum
}
