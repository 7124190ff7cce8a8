package opt

import (
	"fmt"
	"strconv"
	"strings"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// loopWalk is the state of one driver run: the function, its flow
// graph with dominators, its natural loops, whether liveness has been
// computed on that graph, and the tables its loop analyses share.
type loopWalk struct {
	f      *rtl.Func
	g      *cfg.Graph
	loops  []*cfg.Loop
	live   bool
	tables *loopTables
}

// loopVisit transforms the loop l and reports whether it changed the
// code.  One that reports no change must leave the code untouched: the
// driver keeps the graph for the next visit.
type loopVisit func(w *loopWalk, l *cfg.Loop) bool

func (w *loopWalk) build() error {
	g, err := cfg.Build(w.f)
	if err != nil {
		return err
	}
	g.Dominators()
	w.g, w.loops, w.live = g, g.NaturalLoops(), false
	return nil
}

// release returns the run's loop tables to their pool, empty.
func (w *loopWalk) release() {
	if w.tables != nil {
		w.tables.reset()
		loopTablePool.Put(w.tables)
		w.tables = nil
	}
}

// liveness computes liveness on the current graph, once per graph.
func (w *loopWalk) liveness() {
	if !w.live {
		w.g.Liveness()
		w.live = true
	}
}

// walkLoops is the loop driver of LICM, Recurrences, Streams,
// StrengthReduce, DeadIVs and ScheduleLoopTest.  It builds the flow
// graph, dominators and natural loops, then sweeps the loops deepest
// first, in cfg.NaturalLoops order, once per visit function (Streams
// has two: leaf loops, then the restart rule).  After a visit that
// changes the code it rebuilds and visits the same loop again; a visit
// that changes nothing leaves the graph to the next one.  It returns
// when a round of sweeps changes nothing.  With preheaders set, every
// loop first gets a preheader, and a loop that cannot have one is
// skipped.
//
// A change moves an instruction out of one loop level, removes one, or
// rewrites one memory reference or one loop for good, so a terminating
// run makes fewer than (instructions + loops) × (depth + 1) changes.  A
// run that makes more is not converging: it returns an error, which the
// sandbox turns into a rollback and a Degraded diagnostic.
func walkLoops(f *rtl.Func, pass string, preheaders bool, visits ...loopVisit) (bool, error) {
	w := &loopWalk{f: f}
	defer w.release()
	if err := w.build(); err != nil {
		return false, err
	}
	changed := preheaders && insertPreheaders(f, w.loops)
	if changed {
		if err := w.build(); err != nil {
			return true, err
		}
	}
	depth := 0
	for _, l := range w.loops {
		depth = max(depth, l.Depth)
	}
	bound := (len(f.Code) + len(w.loops)) * (depth + 1)
	changes := 0
	kept := false // the graph has outlived a visit that changed nothing
	for {
		swept := false
		for _, visit := range visits {
			for k := 0; k < len(w.loops); k++ {
				l := w.loops[k]
				if preheaders && l.Preheader == nil {
					continue
				}
				if kept && analysisCheck != nil {
					w.liveness()
					analysisCheck(pass, f, w.g)
				}
				if !visit(w, l) {
					kept = true
					continue
				}
				changed, swept = true, true
				if changes++; changes > bound {
					return true, fmt.Errorf("loop driver: no fixpoint after %d changes", bound)
				}
				if err := w.build(); err != nil {
					return true, err
				}
				kept = false
				k-- // visit the same loop again
			}
		}
		if !swept {
			return changed, nil
		}
	}
}

// --- preheader management ------------------------------------------------

// insertPreheaders gives every loop that lacks a preheader a dedicated
// one, in loop order, and reports whether it inserted any.  The
// transformation is textual: a fresh label goes immediately before the
// header's label and every branch to the header from outside the loop
// is retargeted to it; fall-through entry passes through the new label.
// Loops are recorded by their header's label and their instructions
// before anything is inserted, so one graph serves every insertion.
func insertPreheaders(f *rtl.Func, loops []*cfg.Loop) bool {
	type pending struct {
		header string
		inLoop map[*rtl.Instr]bool
	}
	var todo []pending
	for _, l := range loops {
		hdr := headerLabelIndex(f, l)
		if l.Preheader != nil || hdr < 0 {
			continue
		}
		p := pending{header: f.Code[hdr].Name, inLoop: map[*rtl.Instr]bool{}}
		for b := range l.Blocks {
			for _, i := range b.Instrs(f) {
				p.inLoop[i] = true
			}
		}
		todo = append(todo, p)
	}
	for _, p := range todo {
		pre := freshLabel(f, "LP")
		for _, i := range f.Code {
			switch i.Kind {
			case rtl.KJump, rtl.KCondJump, rtl.KJumpNotDone:
				if i.Target == p.header && !p.inLoop[i] {
					i.Target = pre
				}
			}
		}
		f.Insert(f.FindLabel(p.header), rtl.NewLabel(pre))
	}
	return len(todo) > 0
}

// freshLabel picks the lowest unused <prefix><n> label name in the
// function.  Numbering is per-function (labels are function-scoped in
// the linker) and derived only from the function's own code, so
// optimizing functions concurrently — or in any order — yields
// identical names.  A package-level counter here would be both a data
// race and a determinism leak under the parallel engine.
func freshLabel(f *rtl.Func, prefix string) string {
	max := 0
	for _, i := range f.Code {
		if i.Kind != rtl.KLabel || !strings.HasPrefix(i.Name, prefix) {
			continue
		}
		if n, err := strconv.Atoi(i.Name[len(prefix):]); err == nil && n > max {
			max = n
		}
	}
	return prefix + strconv.Itoa(max+1)
}

// headerLabelIndex returns the index of the loop header's label, which
// is also where code for the end of the preheader goes, or -1.
func headerLabelIndex(f *rtl.Func, l *cfg.Loop) int {
	for n := l.Header.Start; n < l.Header.End; n++ {
		if f.Code[n].Kind == rtl.KLabel {
			return n
		}
	}
	return -1
}
