package opt_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/cfg"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
)

// sameAnalysis reports how kept differs from a fresh flow graph and
// liveness of f, or "" when they agree on every block's bounds,
// successors, live-in and live-out.
func sameAnalysis(f *rtl.Func, kept *cfg.Graph) string {
	fresh, err := cfg.Build(f)
	if err != nil {
		return err.Error()
	}
	fresh.Liveness()
	if len(fresh.Blocks) != len(kept.Blocks) {
		return fmt.Sprintf("%d blocks, fresh analysis has %d", len(kept.Blocks), len(fresh.Blocks))
	}
	for k, want := range fresh.Blocks {
		got := kept.Blocks[k]
		if got.Start != want.Start || got.End != want.End {
			return fmt.Sprintf("B%d is [%d,%d), fresh [%d,%d)", k, got.Start, got.End, want.Start, want.End)
		}
		if len(got.Succs) != len(want.Succs) {
			return fmt.Sprintf("B%d has %d successors, fresh %d", k, len(got.Succs), len(want.Succs))
		}
		for j := range want.Succs {
			if got.Succs[j].Index != want.Succs[j].Index {
				return fmt.Sprintf("B%d successor %d is B%d, fresh B%d", k, j, got.Succs[j].Index, want.Succs[j].Index)
			}
		}
		if !got.LiveIn.Equal(want.LiveIn) {
			return fmt.Sprintf("B%d live-in %v, fresh %v", k, got.LiveIn, want.LiveIn)
		}
		if !got.LiveOut.Equal(want.LiveOut) {
			return fmt.Sprintf("B%d live-out %v, fresh %v", k, got.LiveOut, want.LiveOut)
		}
	}
	return ""
}

// TestAnalysisReuseInvariant checks the premise that lets Combine and
// SinkCopies keep one flow graph and liveness across rewrites, and the
// loop driver keep one across the loop visits that change nothing:
// after every merge and every copy sink, and before every loop visit
// on a kept graph, a fresh analysis of the function equals the one the
// pass is maintaining.  It covers every function of the suite and of
// 20 random programs at O3.
func TestAnalysisReuseInvariant(t *testing.T) {
	var mu sync.Mutex
	checks := map[string]int{}
	defer opt.SetAnalysisCheck(func(pass string, f *rtl.Func, g *cfg.Graph) {
		mu.Lock()
		checks[pass]++
		mu.Unlock()
		if diff := sameAnalysis(f, g); diff != "" {
			t.Errorf("%s in %s: kept analysis is stale: %s\n%s", pass, f.Name, diff, f.Listing())
		}
	})()
	progs := append(bench.Programs(), bench.Livermore5(2000))
	for seed := 0; seed < 20; seed++ {
		src := bench.RandomProgram(rand.New(rand.NewSource(int64(seed))))
		progs = append(progs, bench.Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src})
	}
	for _, p := range progs {
		if _, err := bench.Compile(p, 3); err != nil {
			t.Fatal(err)
		}
	}
	for _, pass := range []string{"Combine", "SinkCopies", "LICM", "Recurrences", "Streams",
		"StrengthReduce", "DeadIVs", "ScheduleLoopTest"} {
		if checks[pass] == 0 {
			t.Errorf("%s never kept an analysis; the invariant went unchecked", pass)
		}
	}
	t.Logf("kept analyses checked: %v", checks)
}
