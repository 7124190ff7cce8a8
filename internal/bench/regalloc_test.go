package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// TestRandomCallPrograms runs RandomCallProgram's programs at O0-O3 on
// both engines against the output the generator computed in Go.  Every
// call overwrites both register pools, so a value the allocator keeps
// in a register across a call must be stored before the call and
// reloaded after it.  The test also requires that some program saves a
// value around a call at O3 and some spills one everywhere, so that
// both forms of call-crossing register stay exercised.
func TestRandomCallPrograms(t *testing.T) {
	const seeds = 12
	saves, spills := 0, 0
	for seed := 0; seed < seeds; seed++ {
		src, want := RandomCallProgram(rand.New(rand.NewSource(int64(seed))))
		p := Program{Name: fmt.Sprintf("call%d", seed), Source: src}
		for lvl := 0; lvl <= 3; lvl++ {
			rp, err := Compile(p, lvl)
			if err != nil {
				t.Fatalf("%s O%d: %v\n%s", p.Name, lvl, err, src)
			}
			if lvl == 3 {
				// Every stack load that is not a reload after a call
				// belongs to a spilled register.
				loads, reloads := 0, 0
				for _, i := range rp.Func("main").Code {
					if i.Kind == rtl.KLoad && i.FIFO.N == rtl.FIFO1 {
						loads++
					}
					if i.Note == "reload after call" {
						reloads++
					}
				}
				if reloads > 0 {
					saves++
				}
				if loads > reloads {
					spills++
				}
			}
			for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineTranslated} {
				cfg := sim.DefaultConfig()
				cfg.Engine = eng
				_, out, err := Run(rp, cfg)
				if err != nil {
					t.Fatalf("%s O%d %s: %v\n%s", p.Name, lvl, eng, err, src)
				}
				if out != want {
					t.Fatalf("%s O%d %s: output %q, want %q\n%s", p.Name, lvl, eng, out, want, src)
				}
			}
		}
	}
	if saves == 0 || spills == 0 {
		t.Errorf("O3 saves around calls in %d programs and spills in %d: the generator no longer reaches both forms", saves, spills)
	}
}

// TestQuicksortLoopsStayOffStack: a and i cross qsort2's recursive
// calls but none of its loops contains a call, so no loop of qsort2
// loads or stores the stack at O3.  The allocator once spilled them at
// every access, and each scan-loop iteration reloaded a and i and
// stored i back around its one data load.
func TestQuicksortLoopsStayOffStack(t *testing.T) {
	rp, err := Compile(Quicksort, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := rp.Func("qsort2")
	loops := 0
	for n, i := range f.Code {
		if i.Kind != rtl.KCondJump {
			continue
		}
		head := f.FindLabel(i.Target)
		if head < 0 || head > n {
			continue
		}
		loops++
		for _, j := range f.Code[head:n] {
			if (j.Kind == rtl.KLoad || j.Kind == rtl.KStore) && j.FIFO.N == rtl.FIFO1 {
				t.Errorf("stack access %s in the loop at %s:\n%s", j, i.Target, f.Listing())
			}
		}
	}
	if loops < 3 {
		t.Errorf("found %d loops in qsort2, want the two scan loops and the partition loop:\n%s", loops, f.Listing())
	}
}
