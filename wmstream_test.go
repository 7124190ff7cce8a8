package wmstream

import (
	"context"
	"strings"
	"testing"
)

// TestCompileRunLevels drives the public API end to end: a scalar
// reduction computed identically at every optimization level, with
// cycles monotonically improving from O0 to O1.
func TestCompileRunLevels(t *testing.T) {
	src := `
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 10; i++) s = s + i;
    puti(s);
    return 0;
}`
	var o0 int64
	for lvl := O0; lvl <= O3; lvl++ {
		p, err := Compile(src, lvl)
		if err != nil {
			t.Fatalf("O%d compile: %v", lvl, err)
		}
		res, err := Run(p, DefaultMachine())
		if err != nil {
			t.Fatalf("O%d run: %v\n%s", lvl, err, p.Listing())
		}
		if res.Output != "45" {
			t.Fatalf("O%d output = %q\n%s", lvl, res.Output, p.Listing())
		}
		if lvl == O0 {
			o0 = res.Cycles
		} else if res.Cycles > o0 {
			t.Errorf("O%d (%d cycles) slower than O0 (%d)", lvl, res.Cycles, o0)
		}
	}
}

// TestLivermoreAllLevels is the paper's running example through the
// public API: identical numeric results at every level, recurrence
// optimization removing memory reads at O2, streams appearing at O3.
func TestLivermoreAllLevels(t *testing.T) {
	src := `
double x[200], y[200], z[200];
int n = 200;
int main(void) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = (i % 9) * 0.5;
        y[i] = (i % 7) * 0.25;
        z[i] = (i % 5) * 0.125;
    }
    for (i = 2; i < n; i++)
        x[i] = z[i] * (y[i] - x[i-1]);
    putd(x[n-1]);
    return 0;
}`
	var ref string
	var readsO1, readsO2 int64
	var cyclesPrev int64
	for lvl := O0; lvl <= O3; lvl++ {
		p, err := Compile(src, lvl)
		if err != nil {
			t.Fatalf("O%d: %v", lvl, err)
		}
		res, err := Run(p, DefaultMachine())
		if err != nil {
			t.Fatalf("O%d run: %v\n%s", lvl, err, p.Listing())
		}
		if lvl == O0 {
			ref = res.Output
		} else if res.Output != ref {
			t.Fatalf("O%d output %q != O0 %q", lvl, res.Output, ref)
		}
		switch lvl {
		case O1:
			readsO1 = res.MemReads
		case O2:
			readsO2 = res.MemReads
			if readsO2 >= readsO1 {
				t.Errorf("recurrence optimization removed no reads: O1=%d O2=%d", readsO1, readsO2)
			}
		case O3:
			if res.StreamElems == 0 {
				t.Errorf("no streaming at O3:\n%s", p.FuncListing("main"))
			}
			if !strings.Contains(p.FuncListing("main"), "sin64f") {
				t.Errorf("no stream-in instruction at O3:\n%s", p.FuncListing("main"))
			}
		}
		if lvl >= O1 && cyclesPrev > 0 && res.Cycles > cyclesPrev {
			t.Errorf("O%d (%d cycles) slower than previous level (%d)", lvl, res.Cycles, cyclesPrev)
		}
		cyclesPrev = res.Cycles
	}
}

// TestAssembleRoundTrip feeds Listing output back through Assemble.
func TestAssembleRoundTrip(t *testing.T) {
	p, err := Compile(`int main(void) { puti(6 * 7); return 0; }`, O3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Assemble(p.Listing())
	if err != nil {
		t.Fatalf("Assemble: %v\n%s", err, p.Listing())
	}
	res, err := Run(q, DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "42" {
		t.Errorf("output = %q", res.Output)
	}
}

// TestMachineKnobs verifies Machine configuration reaches the
// simulator.
func TestMachineKnobs(t *testing.T) {
	src := `
double a[512];
int main(void) {
    int i;
    double s;
    for (i = 0; i < 512; i++) a[i] = i * 0.5;
    s = 0.0;
    for (i = 0; i < 512; i++) s = s + a[i];
    putd(s);
    return 0;
}`
	p, err := Compile(src, O2) // scalar loads, latency-sensitive
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultMachine()
	fast.MemLatency = 1
	slow := DefaultMachine()
	slow.MemLatency = 30
	rf, err := Run(p, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(p, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Output != rs.Output {
		t.Fatalf("outputs differ: %q vs %q", rf.Output, rs.Output)
	}
	if rs.Cycles <= rf.Cycles {
		t.Errorf("latency knob ignored: slow=%d fast=%d", rs.Cycles, rf.Cycles)
	}
}

// TestCompileErrors surfaces front-end diagnostics through the API.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(`int main(void) { return q; }`, O3); err == nil {
		t.Error("undefined name accepted")
	}
	if _, err := Compile(`int f(void) { return 1; }`, O3); err == nil {
		t.Error("missing main accepted")
	}
	if _, err := Assemble("bogus !!"); err == nil {
		t.Error("bad assembly accepted")
	}
}

// TestMaxRecurrenceDegree verifies the degree bound reaches the
// recurrence pass: a degree-2 recurrence (x[i] uses x[i-2]) is
// register-carried under the default bound but left in memory when the
// caller lowers the bound below 2.
func TestMaxRecurrenceDegree(t *testing.T) {
	src := `
double x[300], y[300];
int n = 300;
int main(void) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = (i % 9) * 0.5;
        y[i] = (i % 7) * 0.25;
    }
    for (i = 2; i < n; i++)
        x[i] = y[i] - x[i-2];
    putd(x[n-1]);
    return 0;
}`
	o := LevelOptions(O2)
	reads := map[int64]int64{}
	outputs := map[int64]string{}
	for _, deg := range []int64{1, 4} {
		o.MaxRecurrenceDegree = deg
		cres, err := CompileContext(context.Background(), src, CompileConfig{Options: o})
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		p := cres.Program
		res, err := Run(p, DefaultMachine())
		if err != nil {
			t.Fatalf("degree %d run: %v", deg, err)
		}
		reads[deg] = res.MemReads
		outputs[deg] = res.Output
	}
	if outputs[1] != outputs[4] {
		t.Fatalf("outputs differ: degree 1 %q, degree 4 %q", outputs[1], outputs[4])
	}
	if reads[4] >= reads[1] {
		t.Errorf("degree bound not plumbed: reads at degree 4 (%d) not below degree 1 (%d)",
			reads[4], reads[1])
	}
}

// TestCompileWithStats exercises the instrumented compile: the
// per-pass table must cover the pipeline, and a CompileConfig.Debug
// writer must receive vpo-style dumps while the invariant checker
// stays quiet.
func TestCompileWithStats(t *testing.T) {
	src := `
double x[100];
int n = 100;
int main(void) {
    int i;
    for (i = 0; i < n; i++) x[i] = i * 0.5;
    putd(x[n-1]);
    return 0;
}`
	var debug strings.Builder
	cres, err := CompileContext(context.Background(), src,
		CompileConfig{Options: LevelOptions(O3), Debug: &debug})
	if err != nil {
		t.Fatal(err)
	}
	p, stats := cres.Program, cres.Stats
	if stats == nil || stats.Funcs == 0 {
		t.Fatalf("no stats collected: %+v", stats)
	}
	byName := map[string]PassStat{}
	for _, ps := range stats.Passes {
		byName[ps.Name] = ps
	}
	for _, name := range []string{"Fold", "DeadCode", "RegAlloc", "[standard]"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("pass %q missing from stats", name)
		}
	}
	if g := byName["[standard]"]; g.Rounds == 0 {
		t.Errorf("fixpoint group recorded no rounds: %+v", g)
	}
	if stats.Total <= 0 {
		t.Errorf("total time not recorded: %v", stats.Total)
	}
	if !strings.Contains(stats.Table(), "Fold") {
		t.Errorf("table missing pass rows:\n%s", stats.Table())
	}
	if !strings.Contains(debug.String(), "after") {
		t.Error("debug writer received no pass dumps")
	}
	res, err := Run(p, DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" {
		t.Error("instrumented compile produced a silent program")
	}
}

// TestLevelOptions spot-checks the option sets.
func TestLevelOptions(t *testing.T) {
	o1 := LevelOptions(O1)
	if !o1.Standard || o1.Recurrence || o1.Stream {
		t.Errorf("O1 options wrong: %+v", o1)
	}
	o3 := LevelOptions(O3)
	if !o3.Standard || !o3.Recurrence || !o3.Stream || !o3.Combine {
		t.Errorf("O3 options wrong: %+v", o3)
	}
}
