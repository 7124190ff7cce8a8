package bench

import (
	"fmt"
	"testing"

	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// runBoth runs rp on both engines and fails unless each prints want.
// It returns the reference engine's statistics.
func runBoth(t *testing.T, name string, rp *rtl.Program, want string) sim.Stats {
	t.Helper()
	var stats sim.Stats
	for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineTranslated} {
		cfg := sim.DefaultConfig()
		cfg.Engine = eng
		st, out, err := Run(rp, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", name, eng, err)
		}
		if out != want {
			t.Fatalf("%s %s: output %q, want %q", name, eng, out, want)
		}
		if eng == sim.EngineReference {
			stats = st
		}
	}
	return stats
}

// TestWideInvariantLoop: 150 globals summed in one loop compile at
// O0-O3 and print the sum.  LICM keeps every global in a register, so
// the register allocator spills about 130 of them, one per round; a
// fixed cap of 100 rounds once failed the compilation.  At O3 the
// optimizer reports no degraded pass.
func TestWideInvariantLoop(t *testing.T) {
	p := WideInvariantLoop(150)
	for lvl := 0; lvl <= 3; lvl++ {
		rp, err := CompileNone(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := opt.NewContext(opt.Level(lvl))
		if err := opt.WMPipeline(ctx.Opts).Run(rp, ctx); err != nil {
			t.Fatalf("O%d: %v", lvl, err)
		}
		if d := ctx.Diags(); len(d) > 0 {
			t.Errorf("O%d: degraded: %v", lvl, d)
		}
		runBoth(t, fmt.Sprintf("%s O%d", p.Name, lvl), rp, p.Expect)
	}
}

// TestManyLoopsStreamEveryLoop: each of 150 loops in one function
// streams at O3, and O0 and O3 print the same sum.  Streams once gave
// up silently after 128 loops.
func TestManyLoopsStreamEveryLoop(t *testing.T) {
	const loops, trip = 150, 64
	p := ManyLoops(loops)
	for _, lvl := range []int{0, 3} {
		rp, err := Compile(p, lvl)
		if err != nil {
			t.Fatal(err)
		}
		stats := runBoth(t, fmt.Sprintf("%s O%d", p.Name, lvl), rp, p.Expect)
		if lvl != 3 {
			continue
		}
		jnd := 0
		for _, i := range rp.Func("main").Code {
			if i.Kind == rtl.KJumpNotDone {
				jnd++
			}
		}
		if jnd != loops || stats.StreamElems != loops*trip {
			t.Errorf("O3: %d jnd and %d elements streamed, want %d and %d", jnd, stats.StreamElems, loops, loops*trip)
		}
	}
}

// TestLICMKeepsLiveInLoad: each loop reads x before it sets x, so its
// first iteration adds x's value from before the loop.  Hoisting the
// load of g out of the first loop, or g + 1 out of the second, once
// made that addition read the new value (50 and 110 for 46 and 101).
func TestLICMKeepsLiveInLoad(t *testing.T) {
	checkLoadProgram(t, "livein", `
int g = 5;
int n = 10;
int c = 0;

int main(void) {
    int i, x, s;
    x = 1;
    s = 0;
    for (i = 0; i < n; i++) {
        s = s + x;
        x = g;
    }
    puti(s);
    x = 1;
    for (i = 0; i < n; i++) {
        s = s + x;
        if (c)
            s = s + 1;
        x = g + 1;
    }
    puti(s);
    return 0;
}
`, "46101")
}

// BenchmarkCompileScaling compiles the compile-scaling programs at O3:
// a loop reading 50 and 100 invariant globals, and a function of 50
// and 150 loops.
func BenchmarkCompileScaling(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Program
	}{
		{"wide/50", WideInvariantLoop(50)}, {"wide/100", WideInvariantLoop(100)},
		{"loops/50", ManyLoops(50)}, {"loops/150", ManyLoops(150)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := Compile(c.p, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
