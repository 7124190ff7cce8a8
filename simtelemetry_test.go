package wmstream

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

const telemetrySrc = `
double a[256], b[256];
int main(void) {
    int i;
    double sum;
    for (i = 0; i < 256; i++) {
        a[i] = (i & 3) * 1.5;
        b[i] = (i & 7) * 0.5;
    }
    sum = 0.0;
    for (i = 0; i < 256; i++)
        sum = sum + a[i] * b[i];
    putd(sum);
    return 0;
}
`

// TestRunWithTelemetry drives the full telemetry surface in one run:
// stall attribution, Chrome trace, compile spans, and the source
// profile.
func TestRunWithTelemetry(t *testing.T) {
	res, err := CompileContext(context.Background(), telemetrySrc, CompileConfig{Options: LevelOptions(3)})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var trace bytes.Buffer
	sr, err := RunWithTelemetry(res.Program, DefaultMachine(), SimOptions{
		TraceJSON:    &trace,
		CompileStats: res.Stats,
		Profile:      true,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sr.Output == "" {
		t.Error("no program output")
	}

	// Attribution invariant at the public API level.
	if len(sr.Units) < 4 {
		t.Fatalf("got %d unit breakdowns, want IFU+IEU+FEU+SCUs", len(sr.Units))
	}
	for _, u := range sr.Units {
		sum := u.Issued + u.Idle
		for _, n := range u.Stalls {
			sum += n
		}
		if sum != u.Total || u.Total != sr.Cycles {
			t.Errorf("%s: issued+idle+stalls = %d, Total = %d, Cycles = %d", u.Unit, sum, u.Total, sr.Cycles)
		}
	}
	if !strings.Contains(sr.UnitTable(), "unit") || !strings.Contains(sr.UnitTable(), "IEU") {
		t.Errorf("UnitTable malformed:\n%s", sr.UnitTable())
	}

	// The trace must be valid JSON containing both the compile and the
	// machine process.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		if pid, ok := e["pid"].(float64); ok {
			pids[pid] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("trace pids = %v, want both compile (1) and sim (2)", pids)
	}

	// The profile must attribute at least 90% of retirements (the
	// acceptance bar) and carry source text for the hot line.
	if sr.Profile == nil || sr.Profile.TotalRetires == 0 {
		t.Fatal("no profile collected")
	}
	if pct := sr.Profile.AttributedPct(); pct < 90 {
		t.Errorf("profile attributes %.1f%% of retirements, want >= 90%%\n%s", pct, sr.Profile.Report(0))
	}
	if len(sr.Profile.Lines) == 0 || sr.Profile.Lines[0].Text == "" {
		t.Errorf("profile has no source text:\n%s", sr.Profile.Report(5))
	}
	if !strings.Contains(sr.Profile.Report(5), "retires") {
		t.Errorf("report header malformed:\n%s", sr.Profile.Report(5))
	}
}

// TestProfileAttributionAcrossLevels: the >= 90% attribution bar holds
// at every optimization level, not just -O3 — passes must preserve
// debug lines as they rewrite code.
func TestProfileAttributionAcrossLevels(t *testing.T) {
	for level := 0; level <= 3; level++ {
		p, err := Compile(telemetrySrc, level)
		if err != nil {
			t.Fatalf("compile -O%d: %v", level, err)
		}
		sr, err := RunWithTelemetry(p, DefaultMachine(), SimOptions{Profile: true})
		if err != nil {
			t.Fatalf("run -O%d: %v", level, err)
		}
		if pct := sr.Profile.AttributedPct(); pct < 90 {
			t.Errorf("-O%d: %.1f%% attributed, want >= 90%%", level, pct)
		}
	}
}

// TestProfileSurvivesAssemblyRoundTrip: wmcc -g output fed to the
// assembler still profiles (the @line annotations carry the table).
func TestProfileSurvivesAssemblyRoundTrip(t *testing.T) {
	p, err := Compile(telemetrySrc, 3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p2, err := Assemble(p.ListingDebug())
	if err != nil {
		t.Fatalf("assemble debug listing: %v", err)
	}
	sr, err := RunWithTelemetry(p2, DefaultMachine(), SimOptions{Profile: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if pct := sr.Profile.AttributedPct(); pct < 90 {
		t.Errorf("after round trip: %.1f%% attributed, want >= 90%%", pct)
	}
	// Without -g the same program yields no attribution.
	p3, err := Assemble(p.Listing())
	if err != nil {
		t.Fatalf("assemble plain listing: %v", err)
	}
	sr3, err := RunWithTelemetry(p3, DefaultMachine(), SimOptions{Profile: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sr3.Profile.Attributed != 0 {
		t.Errorf("plain listing attributed %d retirements, want 0", sr3.Profile.Attributed)
	}
}

// TestTelemetryOnDeadlock: a run that faults still returns the
// telemetry collected up to the fault and writes the trace.
func TestTelemetryOnDeadlock(t *testing.T) {
	p, err := Assemble(`
.entry main
.func main
r2 := r0
halt
.end
`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := DefaultMachine()
	m.WatchdogSlack = 50
	var trace bytes.Buffer
	sr, err := RunWithTelemetry(p, m, SimOptions{TraceJSON: &trace})
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
	if len(sr.Units) == 0 {
		t.Error("no unit attribution returned on fault")
	}
	if !json.Valid(trace.Bytes()) {
		t.Error("trace written on fault is not valid JSON")
	}
}
