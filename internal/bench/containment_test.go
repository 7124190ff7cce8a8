package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"wmstream/internal/diag"
	"wmstream/internal/opt"
)

// compileDiags builds p with the canonical WM pipeline at the given
// level and returns the debug listing and the diagnostics the pass
// sandbox recorded.
func compileDiags(t testing.TB, p Program, level int) (string, []diag.Diagnostic) {
	t.Helper()
	rp, err := CompileNone(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := opt.NewContext(opt.Level(level))
	if err := opt.WMPipeline(ctx.Opts).Run(rp, ctx); err != nil {
		t.Fatalf("%s O%d: %v", p.Name, level, err)
	}
	return rp.StringDebug(), ctx.Diags()
}

// TestNoDegradation compiles the suite, Livermore 5 and the three
// random program generators at O1-O3 and requires that no pass or
// fixpoint group was contained: a Degraded diagnostic on code the
// compiler generates itself is a bug (a pass that faults, or a group
// that never converges) hidden by the sandbox.
func TestNoDegradation(t *testing.T) {
	random := func(name string, n int, gen func(*rand.Rand) string) []Program {
		var progs []Program
		for seed := 0; seed < n; seed++ {
			src := gen(rand.New(rand.NewSource(int64(seed))))
			progs = append(progs, Program{Name: fmt.Sprintf("%s%d", name, seed), Source: src})
		}
		return progs
	}
	withoutWant := func(gen func(*rand.Rand) (string, string)) func(*rand.Rand) string {
		return func(r *rand.Rand) string { src, _ := gen(r); return src }
	}
	for _, group := range []struct {
		name  string
		progs []Program
	}{
		{"suite", append(Programs(), Livermore5(2000))},
		{"random", random("fuzz", 100, RandomProgram)},
		{"load", random("load", 200, withoutWant(RandomLoadProgram))},
		{"call", random("call", 200, withoutWant(RandomCallProgram))},
	} {
		group := group
		t.Run(group.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range group.progs {
				for lvl := 1; lvl <= 3; lvl++ {
					if _, diags := compileDiags(t, p, lvl); len(diags) != 0 {
						t.Errorf("%s O%d: %v", p.Name, lvl, diags)
					}
				}
			}
		})
	}
}

// containedPasses are the non-required passes of the O3 pipeline: the
// ones the sandbox contains.
var containedPasses = []string{
	"Fold", "CopyProp", "SinkCopies", "CSE", "DeadCode", "CleanBranches",
	"LICM", "Recurrences", "Streams", "Combine", "StrengthReduce",
	"DeadIVs", "ScheduleLoopTest",
}

// containedModes are the injected faults a contained pass can suffer
// without hanging the test.
var containedModes = []string{"panic", "corrupt", "error"}

// compileInjected builds p at O3 with opt.InjectFault returning mode
// at the nth invocation of pass in main — and, for "skip", at every
// later one too.  It returns the listing, the diagnostics, and how many
// invocations of pass in main consulted the hook.
func compileInjected(t testing.TB, p Program, pass, mode string, nth int) (string, []diag.Diagnostic, int) {
	t.Helper()
	n := 0
	// Only main's goroutine touches n: functions are optimized
	// concurrently, but each by one worker.
	opt.InjectFault = func(name, fn string) string {
		if name != pass || fn != "main" {
			return ""
		}
		n++
		if n == nth || (n > nth && mode == "skip") {
			return mode
		}
		return ""
	}
	defer func() { opt.InjectFault = nil }()
	listing, diags := compileDiags(t, p, 3)
	return listing, diags, n
}

// checkContainedFault checks the sandbox's rollback contract for one
// (program, pass, nth) point: a fault in every contained mode at the
// nth invocation of pass in main yields the listing that skipping that
// invocation and every later one yields, and a Degraded diagnostic
// naming the pass.
func checkContainedFault(t testing.TB, p Program, pass string, nth int, modes []string) {
	t.Helper()
	want, _, calls := compileInjected(t, p, pass, "skip", nth)
	if calls < nth {
		return // main never reaches the nth invocation
	}
	for _, mode := range modes {
		got, diags, _ := compileInjected(t, p, pass, mode, nth)
		degraded := false
		for _, d := range diags {
			degraded = degraded || (d.Sev == diag.Degraded && d.Pass == pass && d.Func == "main")
		}
		if !degraded {
			t.Errorf("%s: %s %s at invocation %d: no Degraded diagnostic (have %v)", p.Name, pass, mode, nth, diags)
		}
		if got != want {
			t.Errorf("%s: %s %s at invocation %d: listing differs from skipping it from there on\ngot:\n%s\nwant:\n%s",
				p.Name, pass, mode, nth, got, want)
		}
	}
}

// TestContainedFaultEqualsSkip pins the rollback semantics of the pass
// sandbox independently of its mechanism: a contained fault must leave
// exactly the code that not running the pass from that invocation on
// leaves.  Under -short it covers the suite at the first two
// invocations.
func TestContainedFaultEqualsSkip(t *testing.T) {
	progs := append(Programs(), Livermore5(200))
	nths := []int{1, 2, 3, 5}
	if testing.Short() {
		progs = Programs()
		nths = []int{1, 2}
	} else {
		for seed := 0; seed < 30; seed++ {
			src := RandomProgram(rand.New(rand.NewSource(int64(seed))))
			progs = append(progs, Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src})
		}
	}
	for _, p := range progs {
		for _, pass := range containedPasses {
			for _, nth := range nths {
				checkContainedFault(t, p, pass, nth, containedModes)
			}
		}
	}
}

// FuzzContainedFault checks the same contract on RandomProgram's
// programs: the seed picks the program, and pass, mode and nth pick
// the fault.  Its seed corpus is testdata/fuzz/FuzzContainedFault.
func FuzzContainedFault(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, pass, mode, nth uint8) {
		src := RandomProgram(rand.New(rand.NewSource(seed)))
		p := Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src}
		checkContainedFault(t, p,
			containedPasses[int(pass)%len(containedPasses)],
			1+int(nth)%8,
			[]string{containedModes[int(mode)%len(containedModes)]})
	})
}
