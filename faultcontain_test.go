package wmstream

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/opt"
	"wmstream/internal/sim"
)

// faultProgram exercises enough of the optimizer that every O2/O3 pass
// has something to do, and prints a checksum so degraded and
// full-strength builds can be compared by output.
const faultProgram = `
double x[256], y[256];
int main(void) {
    int i, s;
    double acc;
    for (i = 0; i < 256; i++) { x[i] = i * 0.5; y[i] = i * 0.25; }
    acc = 0.0;
    for (i = 0; i < 256; i++) acc = acc + x[i] * y[i];
    s = 0;
    for (i = 0; i < 256; i++) s = s + i * 3;
    putd(acc);
    puti(s);
    return 0;
}
`

func runOutput(t *testing.T, p *Program) string {
	t.Helper()
	res, err := Run(p, DefaultMachine())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Output
}

// injectEverywhere makes every sandboxed pass invocation fail in the
// given mode for the duration of the test.
func injectEverywhere(t *testing.T, mode string) {
	t.Helper()
	opt.InjectFault = func(pass, fn string) string { return mode }
	t.Cleanup(func() { opt.InjectFault = nil })
}

// TestFaultContainmentEndToEnd forces every optimization pass to fail
// and checks the contract of the containment layer: compilation still
// succeeds, the program's simulated output equals the O0 build's, and
// the degradations are reported as diagnostics naming pass and
// function.
func TestFaultContainmentEndToEnd(t *testing.T) {
	ref, err := Compile(faultProgram, O0)
	if err != nil {
		t.Fatal(err)
	}
	want := runOutput(t, ref)

	injectEverywhere(t, "panic")
	res, err := CompileContext(context.Background(), faultProgram, CompileConfig{Options: LevelOptions(O3)})
	if err != nil {
		t.Fatalf("compilation with all passes faulty errored: %v", err)
	}
	if got := runOutput(t, res.Program); got != want {
		t.Errorf("degraded build output %q != O0 output %q", got, want)
	}
	if len(res.Diagnostics) == 0 {
		t.Fatal("no diagnostics despite every pass failing")
	}
	sawMain := false
	for _, d := range res.Diagnostics {
		if d.Severity != SeverityDegraded {
			t.Errorf("diagnostic %v has severity %v, want Degraded", d, d.Severity)
		}
		if d.Pass == "" || d.Func == "" {
			t.Errorf("diagnostic %v missing pass or function provenance", d)
		}
		if d.Func == "main" {
			sawMain = true
		}
		if !strings.Contains(d.String(), "degraded") {
			t.Errorf("rendered diagnostic %q does not state its severity", d)
		}
	}
	if !sawMain {
		t.Errorf("no diagnostic names function main: %v", res.Diagnostics)
	}
}

// TestFaultContainmentModes drives the other injected failure shapes
// through the full compiler: each must degrade, not error, and the
// output must stay correct.
func TestFaultContainmentModes(t *testing.T) {
	ref, err := Compile(faultProgram, O0)
	if err != nil {
		t.Fatal(err)
	}
	want := runOutput(t, ref)
	for _, mode := range []string{"error", "corrupt"} {
		t.Run(mode, func(t *testing.T) {
			injectEverywhere(t, mode)
			res, err := CompileContext(context.Background(), faultProgram, CompileConfig{Options: LevelOptions(O3)})
			if err != nil {
				t.Fatalf("mode %s errored: %v", mode, err)
			}
			if got := runOutput(t, res.Program); got != want {
				t.Errorf("mode %s: output %q != O0 output %q", mode, got, want)
			}
			if len(res.Diagnostics) == 0 {
				t.Errorf("mode %s: no diagnostics", mode)
			}
		})
	}
}

// TestStrictPromotesDegradation checks that -strict semantics turn a
// contained fault into a compilation error while still reporting the
// diagnostics.
func TestStrictPromotesDegradation(t *testing.T) {
	injectEverywhere(t, "panic")
	res, err := CompileContext(context.Background(), faultProgram, CompileConfig{Options: LevelOptions(O3), Strict: true})
	if err == nil {
		t.Fatal("strict compilation succeeded despite degradations")
	}
	if !strings.Contains(err.Error(), "strict") {
		t.Errorf("strict error %q does not identify itself", err)
	}
	if len(res.Diagnostics) == 0 {
		t.Error("strict failure lost the diagnostics")
	}
}

// TestFrontendDiagnosticPosition checks that a syntax error surfaces as
// a structured diagnostic with its source position.
func TestFrontendDiagnosticPosition(t *testing.T) {
	res, err := CompileContext(context.Background(), "int main(void) {\n    retur 0;\n}\n", CompileConfig{})
	if err == nil {
		t.Fatal("bad program compiled")
	}
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Severity != SeverityError || d.Stage != "frontend" {
		t.Errorf("diagnostic %+v, want frontend error", d)
	}
	if d.Line != 2 {
		t.Errorf("diagnostic line = %d, want 2", d.Line)
	}
}

// TestAssembleRejectsUnknownLabel checks that hand-written assembly
// with a dangling branch is caught at assembly time, not as a
// simulator fault.
func TestAssembleRejectsUnknownLabel(t *testing.T) {
	_, err := Assemble(`
.entry main
.func main
jump L_missing
.end
`)
	if err == nil {
		t.Fatal("Assemble accepted a branch to an undefined label")
	}
	for _, want := range []string{"main", "L_missing"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunReturnsTypedDeadlock checks the public surface of the
// simulator forensics: a deadlocking program returns a
// *wmstream.DeadlockError identifying the blocked unit and FIFO.
func TestRunReturnsTypedDeadlock(t *testing.T) {
	p, err := Assemble(`
.entry main
.func main
r2 := r0
halt
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	m.WatchdogSlack = 100
	_, err = Run(p, m)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %T (%v), want *DeadlockError", err, err)
	}
	if got := dl.Snapshot.Units[0].BlockedOn; !strings.Contains(got, "input FIFO r0") {
		t.Errorf("snapshot blames %q, want input FIFO r0", got)
	}
	// The same value must also match as the internal type, so code
	// holding either name works.
	var sdl *sim.DeadlockError
	if !errors.As(err, &sdl) {
		t.Error("alias does not match the underlying *sim.DeadlockError")
	}
}

// TestDifferentialO0vsO3 compiles every benchmark of the paper's suite
// at O0 and O3 and requires identical simulated output — the
// end-to-end correctness check the fault-containment layer leans on
// (any contained degradation must land on a point of this lattice).
func TestDifferentialO0vsO3(t *testing.T) {
	progs := append(bench.Programs(), bench.Livermore5(100))
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var out [2]string
			for k, lvl := range []int{O0, O3} {
				prog, err := Compile(p.Source, lvl)
				if err != nil {
					t.Fatalf("O%d: %v", lvl, err)
				}
				out[k] = runOutput(t, prog)
			}
			if out[0] != out[1] {
				t.Errorf("O3 output %q differs from O0 output %q", out[1], out[0])
			}
			if p.Expect != "" && out[0] != p.Expect {
				t.Errorf("O0 output %q, want %q", out[0], p.Expect)
			}
		})
	}
}
