package benchmark

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "regenerate testdata/expected.json")

// TestExpectedFile recomputes every suite program's output at O0-O3 and
// checks it against testdata/expected.json.  With -update it also
// requires the reference engine to agree, then rewrites the file.
func TestExpectedFile(t *testing.T) {
	ctx := context.Background()
	engines := []string{""}
	if *update {
		engines = append(engines, "reference")
	}
	want := map[string]string{}
	for _, s := range suite() {
		for level := 0; level <= 3; level++ {
			p, err := compile(ctx, s.text, level)
			if err != nil {
				t.Fatalf("%s O%d: %v", s.name, level, err)
			}
			for _, engine := range engines {
				r, err := run(ctx, p, machineSpec{}, engine)
				if err != nil {
					t.Fatalf("%s O%d %q: %v", s.name, level, engine, err)
				}
				if prev, ok := want[s.name]; ok && prev != r.Output {
					t.Fatalf("%s O%d %q: output %q differs from %q", s.name, level, engine, r.Output, prev)
				}
				want[s.name] = r.Output
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/expected.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("testdata/expected.json is stale (go test -run TestExpectedFile -update):\n got %q\nwant %q", got, want)
	}
}

// TestGoldenOutputs checks four reference outputs against values
// computed in Go, independently of the compiler and the simulator.
func TestGoldenOutputs(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	insertionSorted := func(a []int) {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j-1] > a[j]; j-- {
				a[j-1], a[j] = a[j], a[j-1]
			}
		}
	}

	b := make([]int, 500)
	for i := range b {
		b[i] = (500 - i) * 7 % 101
	}
	insertionSorted(b)
	bsum := 0
	for i, v := range b {
		bsum += v * i
	}

	q := make([]int, 2000)
	for i := range q {
		q[i] = (i*1103515245 + 12345) % 10007
	}
	insertionSorted(q)
	qsum := 0
	for _, v := range q {
		qsum += v % 97
	}

	var dot float64
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 4096; i++ {
			a := float64(i%10)*0.5 + 0.25
			b := float64(i%8)*0.25 + 0.5
			dot += float64(a * b)
		}
	}

	// Livermore loop 5 at n=2000.  Explicit conversions keep Go from
	// fusing a multiply and an add, which the simulator never does.
	const n = 2000
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(float64(i%9)*0.25) + 1.0
		y[i] = float64(float64(i%7)*0.5) + 2.0
		z[i] = float64(float64(i%5)*0.125) + 0.5
	}
	for i := 2; i < n; i++ {
		x[i] = z[i] * (y[i] - x[i-1])
	}
	var liv float64
	for i := 0; i < n; i++ {
		liv += x[i]
	}

	for name, want := range map[string]string{
		"bubblesort":  strconv.Itoa(bsum),
		"quicksort":   strconv.Itoa(qsum),
		"dot-product": fmt.Sprintf("%g", dot),
		"livermore5":  fmt.Sprintf("%g", liv),
	} {
		if exp[name] != want {
			t.Errorf("%s: expected.json has %q, Go computes %q", name, exp[name], want)
		}
	}
}

// spec reads the repository's BENCHMARK.json.
func spec(t *testing.T) (*Spec, []string) {
	t.Helper()
	s, err := ReadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	b, _ := os.ReadFile("../BENCHMARK.json")
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range raw.Workloads {
		workloads = append(workloads, w.Name)
	}
	return s, workloads
}

// TestSpecMatchesCode checks that BENCHMARK.json lists exactly the
// workloads and metrics the code runs and reports, with the same units
// and directions, under well-formed names.
func TestSpecMatchesCode(t *testing.T) {
	s, workloads := spec(t)
	if !reflect.DeepEqual(workloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", workloads, Workloads)
	}
	var e2e []metricSpec
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n %v\ncode reports\n %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(s.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer\n %v\ncode reports\n %v", s.PerLayer, perLayer())
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for n := range units {
		if !name.MatchString(n) {
			t.Errorf("metric name %q is malformed", n)
		}
	}
}

// TestAdapterIsTheOnlyImporter keeps every call into the system under
// test in api.go.
func TestAdapterIsTheOnlyImporter(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	more, _ := filepath.Glob("cmd/*/*.go")
	for _, f := range append(files, more...) {
		if f == "api.go" {
			continue
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "wmstream" || strings.HasPrefix(path, "wmstream/internal/") {
				t.Errorf("%s imports %s; only api.go may", f, path)
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4), which the acceptance check uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestRuler checks that the ruler measures at most once per rulerEvery,
// that its own time scales to refMs at sensitivity 1, and that unscale
// undoes scale at the median reading.
func TestRuler(t *testing.T) {
	r := newRuler(1)
	r.tick()
	r.tick()
	if len(r.samples) != 1 {
		t.Fatalf("two ticks in a row measured %d times, want 1", len(r.samples))
	}
	if got := r.scale(r.last); math.Abs(got-refMs) > 1e-9 {
		t.Errorf("scale(last) = %g, want refMs = %g", got, refMs)
	}
	r.exp = simExp
	if got := r.unscale(r.scale(10)); math.Abs(got-10) > 1e-9 {
		t.Errorf("unscale(scale(10)) = %g, want 10", got)
	}
	time.Sleep(rulerEvery)
	r.tick()
	if len(r.samples) != 2 {
		t.Errorf("a tick after rulerEvery measured %d times in all, want 2", len(r.samples))
	}
}

// TestCompare flags a worsening beyond the bound and a changed exact
// metric, and passes identical ledgers.
func TestCompare(t *testing.T) {
	s, _ := spec(t)
	ledger := func(latency, cycles float64) *Ledger {
		l := &Ledger{}
		for k := 0; k < 5; k++ {
			l.Runs = append(l.Runs, LedgerRun{Workload: "w", Result: Result{Metrics: map[string]Metric{
				"latency_p50_ms": {latency + float64(k)*latency/1000, "ms"},
				"sim_cycles":     {cycles, "cycles"},
			}}})
		}
		return l
	}
	var out strings.Builder
	if Compare(&out, s, ledger(10, 100), ledger(10, 100)) {
		t.Errorf("identical ledgers regressed:\n%s", out.String())
	}
	if !Compare(&out, s, ledger(10, 100), ledger(15, 100)) {
		t.Errorf("50%% slower latency did not regress:\n%s", out.String())
	}
	if !Compare(&out, s, ledger(10, 100), ledger(10, 99)) {
		t.Errorf("changed cycles did not regress:\n%s", out.String())
	}
}

// TestSmoke runs every workload briefly plus a short traced run, and
// checks that each reports every metric of BENCHMARK.json, that the
// exact counters repeat, and that a wrong expected output fails a run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	bad := mustExpected(t)
	bad["dot-product"] += "0"
	runs := map[string]Config{
		"traced":    {Workload: "jobs-repeat", Seed: 7, Duration: time.Second, Trace: true, Log: os.Stderr},
		"corrupted": {Workload: "jobs-repeat", Seed: 7, Duration: 500 * time.Millisecond, Setups: 1, Expected: bad},
	}
	for _, w := range Workloads {
		runs[w] = Config{Workload: w, Seed: 7, Duration: time.Second, Setups: 1, Log: os.Stderr}
	}
	var mu sync.Mutex
	results := map[string]*Result{}
	// The runs share nothing but process-wide caches, so they may overlap.
	t.Run("runs", func(t *testing.T) {
		for name, cfg := range runs {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				start := time.Now()
				res, err := Run(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%v", time.Since(start))
				mu.Lock()
				results[name] = res
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}

	for _, w := range Workloads {
		res := results[w]
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: %s = %v (reported %t), want a positive value", w, m.Name, v.Value, ok)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(endToEnd))
		}
	}
	// Both suite workloads sum the same O3 cycles, which the traced run
	// reports program by program.
	cycles := results["suite-sim"].Metrics["sim_cycles"].Value
	if other := results["suite-compile"].Metrics["sim_cycles"].Value; other != cycles {
		t.Errorf("sim_cycles: suite-compile %g, suite-sim %g", other, cycles)
	}
	traced := results["traced"]
	if sum := sumSuiteCycles(traced.Metrics); sum != cycles {
		t.Errorf("sim_cycles %g differs from the sum of sim.cycles.* %g", cycles, sum)
	}

	if !traced.Correct {
		t.Errorf("traced run: %d of %d operations failed", traced.Failed, traced.Attempted)
	}
	if len(traced.Metrics) != len(perLayer()) {
		t.Errorf("traced run: %d metrics, want %d", len(traced.Metrics), len(perLayer()))
	}
	// The exact counters repeat when measured again.
	again := &probe{s: &state{cfg: Config{Expected: mustExpected(t)}, metrics: map[string]Metric{}}}
	if err := again.exactCounters(ctx); err != nil {
		t.Fatal(err)
	}
	for name, m := range again.s.metrics {
		if exact(name) && traced.Metrics[name] != m {
			t.Errorf("%s: %v, then %v", name, traced.Metrics[name], m)
		}
	}

	if res := results["corrupted"]; res.Correct || res.Failed == 0 {
		t.Errorf("a corrupted expected output did not fail the run: %+v", res)
	}
}

func mustExpected(t *testing.T) map[string]string {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func sumSuiteCycles(ms map[string]Metric) float64 {
	var sum float64
	for name, m := range ms {
		if strings.HasPrefix(name, "sim.cycles.") {
			sum += m.Value
		}
	}
	return sum
}
