package experiments

import (
	"strings"
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// TestFiguresShape checks each figure against the structural properties
// the paper's listings exhibit.
func TestFiguresShape(t *testing.T) {
	fig4, err := Figure(4)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4: four memory references in the loop (3 loads + 1 store),
	// no streams, no recurrence registers.
	if got := strings.Count(fig4, "l64f"); got != 3 {
		t.Errorf("figure 4 float loads = %d, want 3\n%s", got, fig4)
	}
	if strings.Contains(fig4, "sin64f") || strings.Contains(fig4, "recurrence") {
		t.Errorf("figure 4 must not contain streams or recurrence code:\n%s", fig4)
	}

	fig5, err := Figure(5)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: the x[i-1] load is gone from the loop (one preload
	// remains in the preheader) and a recurrence register carries it.
	if got := strings.Count(fig5, "l64f"); got != 3 { // z, y in loop + preload
		t.Errorf("figure 5 float loads = %d, want 3\n%s", got, fig5)
	}
	if !strings.Contains(fig5, "preload recurrence value") {
		t.Errorf("figure 5 missing recurrence preload:\n%s", fig5)
	}

	fig7, err := Figure(7)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(fig7, "sin64f") != 2 || strings.Count(fig7, "sout64f") != 1 {
		t.Errorf("figure 7 should stream z,y in and x out:\n%s", fig7)
	}
	if !strings.Contains(fig7, "jnd") {
		t.Errorf("figure 7 missing jump-not-done:\n%s", fig7)
	}
	// The streamed loop body: compute + enqueue + jnd between the loop
	// label and the exit label.
	body := fig7[strings.Index(fig7, "L2:"):]
	body = body[:strings.Index(body, "L4:")]
	lines := 0
	for _, ln := range strings.Split(body, "\n") {
		if strings.Contains(ln, ":=") || strings.Contains(ln, "jnd") {
			lines++
		}
	}
	if lines > 3 {
		t.Errorf("figure 7 loop body has %d instructions, want <= 3:\n%s", lines, body)
	}

	fig6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig6, "fmoved") || !strings.Contains(fig6, "@+") {
		t.Errorf("figure 6 missing 68020 auto-increment loads:\n%s", fig6)
	}
}

// TestTable1Shape runs Table I at reduced size and checks the paper's
// ordering: the Sun (coprocessor FP) gains most among conventional
// machines, the VAX least, and every machine improves.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1(3000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Machine] = r
		if r.Percent <= 0 {
			t.Errorf("%s: no improvement (%f%%)", r.Machine, r.Percent)
		}
		if r.Percent > 40 {
			t.Errorf("%s: implausible improvement (%f%%)", r.Machine, r.Percent)
		}
	}
	if byName["Sun 3/280"].Percent <= byName["HP 9000/345"].Percent {
		t.Errorf("Sun (%f) should beat HP (%f)", byName["Sun 3/280"].Percent, byName["HP 9000/345"].Percent)
	}
	if byName["VAX 8600"].Percent >= byName["HP 9000/345"].Percent {
		t.Errorf("VAX (%f) should trail HP (%f)", byName["VAX 8600"].Percent, byName["HP 9000/345"].Percent)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "WM") || !strings.Contains(out, "%") {
		t.Errorf("formatting broken:\n%s", out)
	}
	t.Logf("\n%s", out)
}

// TestTable2Subset verifies the streaming measurement on the
// fastest-running subset: the dot product gains a lot, and more than
// quicksort.  Quicksort's scan loops (while (a[i] < pivot) i++) read
// only through qsort2's pointer parameter and store nothing, so no
// write can reach an element before its dequeue and they stream on the
// infinite path.  The paper's step 1 used to poison every partition
// for such a read, which left quicksort almost nothing (the test
// bounded its reduction by 10%); the pin is now the stream itself,
// issued from the guard's element, with the second scan's stream
// started early beside the first's (27.7% against the dot product's
// 41.6%).
func TestTable2Subset(t *testing.T) {
	dot, _ := bench.ByName("dot-product")
	_, _, dotPct, err := bench.StreamingReduction(dot)
	if err != nil {
		t.Fatal(err)
	}
	qs, _ := bench.ByName("quicksort")
	_, _, qsPct, err := bench.StreamingReduction(qs)
	if err != nil {
		t.Fatal(err)
	}
	if dotPct < 30 {
		t.Errorf("dot-product reduction = %.1f%%, want large", dotPct)
	}
	if dotPct <= qsPct {
		t.Errorf("shape violated: dot %.1f%% <= quicksort %.1f%%", dotPct, qsPct)
	}
	p, err := bench.Compile(qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := p.Func("qsort2").Listing()
	if !strings.Contains(l, "stream in (infinite)") {
		t.Errorf("quicksort's scan loops do not stream through qsort2's parameter:\n%s", l)
	}
	if !strings.Contains(l, "guard dequeues, started early") {
		t.Errorf("quicksort's second scan stream does not start early from its guard's element:\n%s", l)
	}
}

// TestScalarPipeline checks the conventional-machine path end to end:
// scalar code must contain no stream instructions and still compute the
// same value as the WM path.
func TestScalarPipeline(t *testing.T) {
	src := kernelSource(100)
	p, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.OptimizeScalar(p, true); err != nil {
		t.Fatal(err)
	}
	text := p.String()
	if strings.Contains(text, "sin") || strings.Contains(text, "sout") {
		t.Errorf("scalar pipeline emitted streams:\n%s", text)
	}
	// And the recurrence pass must have removed the x[i-1] load from
	// the loop: exactly 2 float loads inside L-labeled loop body plus 1
	// preload.
	k := p.Func("kernel")
	loads := 0
	for _, i := range k.Code {
		if i.Kind == rtl.KLoad && i.MemClass == rtl.Float {
			loads++
		}
	}
	if loads != 3 {
		t.Errorf("scalar recurrence listing has %d float loads, want 3:\n%s", loads, k.Listing())
	}
}

// TestWMRowScaleInvariance: the simulator's cycle accounting must not
// depend on problem size (per-iteration cost identical at two sizes).
func TestWMRowScaleInvariance(t *testing.T) {
	perIter := func(size int) float64 {
		src := tableISource(size, 4)
		o := opt.Options{Standard: true, Combine: true, StrengthReduce: true,
			Recurrence: true, MinTrip: 4, MaxRecurrenceDegree: 4}
		p, err := compileWM(src, o)
		if err != nil {
			t.Fatal(err)
		}
		stats, _, err := bench.Run(p, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return float64(stats.Cycles) / float64((size-2)*4)
	}
	a, b := perIter(2000), perIter(8000)
	if diff := a - b; diff > 0.6 || diff < -0.6 {
		t.Errorf("per-iteration cost varies with size: %.2f vs %.2f", a, b)
	}
}

// TestTable34Substitute sanity-checks the appendix substitute: the full
// pipeline must beat plain optimization on geometric mean.
func TestTable34Substitute(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, g1, g3, err := Table34()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if g3 <= g1 {
		t.Errorf("O3 geomean (%.2f) should exceed O1 (%.2f)", g3, g1)
	}
	for _, r := range rows {
		if r.O1 < 1 || r.O3 < 1 {
			t.Errorf("%s: optimization made things worse: O1=%.2f O3=%.2f", r.Program, r.O1, r.O3)
		}
	}
}
