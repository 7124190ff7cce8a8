package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// TestRegAllocStopsAtDeadline checks that register allocation honours
// the compilation's deadline between its spill rounds, not only at the
// pass boundaries.  WideInvariantLoop(300) at O3 reaches RegAlloc with
// far more values live in its loop than a register pool holds, so the
// allocator spills one register per round for hundreds of rounds.  The
// rest of the O3 pipeline from RegAlloc on, run under a deadline of a
// twentieth of its uninterrupted time, must fail with an error wrapping
// context.DeadlineExceeded well before the uninterrupted run would end.
func TestRegAllocStopsAtDeadline(t *testing.T) {
	rp, err := CompileNone(WideInvariantLoop(300))
	if err != nil {
		t.Fatal(err)
	}
	pl := opt.WMPipeline(opt.Level(3))
	k := slices.IndexFunc(pl.Steps, func(s opt.Step) bool { return s.Pass != nil && s.Pass.Name() == "RegAlloc" })
	if k < 0 {
		t.Fatal("no RegAlloc step in the O3 pipeline")
	}
	head, tail := pl, pl
	head.Steps, tail.Steps = pl.Steps[:k], pl.Steps[k:]
	if err := head.Run(rp, opt.NewContext(opt.Level(3))); err != nil {
		t.Fatal(err)
	}
	clone := func() *rtl.Program {
		q := *rp
		q.Funcs = nil
		for _, f := range rp.Funcs {
			q.Funcs = append(q.Funcs, f.Clone())
		}
		return &q
	}
	start := time.Now()
	if err := tail.Run(clone(), opt.NewContext(opt.Level(3))); err != nil {
		t.Fatal(err)
	}
	whole := time.Since(start)

	ctx, cancel := context.WithTimeout(context.Background(), whole/20)
	defer cancel()
	octx := opt.NewContext(opt.Level(3))
	octx.Ctx = ctx
	start = time.Now()
	err = tail.Run(clone(), octx)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
	if took > whole/2 {
		t.Errorf("allocation under a %v deadline stopped after %v; uninterrupted it takes %v", whole/20, took, whole)
	}
	t.Logf("uninterrupted %v, stopped after %v: %v", whole, took, err)
}

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
