// Package opt is the RTL optimizer — the reproduction of the paper's
// vpo-based machine-level optimizer.  All transformations run on RTLs
// (package rtl) using the analyses of package cfg, are machine
// independent in form, and can be re-invoked in any order, which is the
// property the paper credits for making the recurrence and streaming
// algorithms simple to compose with the rest of the optimizer.
//
// The two headline passes reproduce the paper's algorithms directly:
//
//   - Recurrence detection and optimization (recurrence.go) — builds
//     memory-reference partitions, finds read/write pairs whose read
//     fetches a value written on a previous iteration, and carries the
//     value in registers instead, eliminating one memory reference per
//     recurrence per iteration (Figures 4 -> 5, Table I).
//   - Streaming (stream.go) — proves references are executed every
//     iteration with fixed stride and a computable trip count, then
//     replaces them with stream-in/stream-out instructions executed by
//     the stream control units, replaces the loop test with a
//     jump-on-stream-not-exhausted, and lets dead-code elimination
//     remove the induction variable (Figure 5 -> 7, Table II).
package opt

import (
	"sync"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Options selects which transformations run.  The zero value performs
// register assignment only (the "naive" baseline).
type Options struct {
	// Standard enables the classic scalar optimizations: constant
	// folding, copy propagation, common-subexpression elimination,
	// dead-code elimination, loop-invariant code motion and branch
	// cleanup.
	Standard bool
	// Recurrence enables the paper's recurrence detection and
	// optimization algorithm.
	Recurrence bool
	// Stream enables the paper's streaming algorithm.  It requires
	// Recurrence analysis machinery but can run with recurrence
	// *optimization* disabled, in which case loops whose recurrences
	// were not eliminated simply refuse to stream (paper step 2a).
	Stream bool
	// StrengthReduce enables induction-variable strength reduction of
	// addressing code (paper streaming step 3, and the auto-increment
	// shape of Figure 6 on conventional machines).
	StrengthReduce bool
	// Combine enables instruction combining into WM's dual-operation
	// form and FIFO-read forwarding.
	Combine bool
	// MinTrip is the smallest statically-known trip count worth
	// streaming (paper step 1 uses 4: "three or fewer, do not use
	// streams").
	MinTrip int64
	// MaxRecurrenceDegree bounds how many registers a recurrence may
	// consume (paper: degree+1 registers).
	MaxRecurrenceDegree int64
}

// Level returns the canonical option sets: 0 none, 1 standard, 2
// +recurrence, 3 +streaming (the full paper pipeline).
func Level(n int) Options {
	o := Options{MinTrip: 4, MaxRecurrenceDegree: 4}
	if n >= 1 {
		o.Standard = true
		o.StrengthReduce = true
		o.Combine = true
	}
	if n >= 2 {
		o.Recurrence = true
	}
	if n >= 3 {
		o.Stream = true
	}
	return o
}

// Optimize runs the canonical WM pipeline over every function and then
// performs register assignment (always required: the expander emits
// virtual registers).  It is a thin wrapper over the pass-manager
// engine (pipeline.go): functions are optimized concurrently, and
// callers that want per-pass statistics, debug dumps, invariant
// checking or a custom pass order use WMPipeline/Pipeline.Run with
// their own Context.
func Optimize(p *rtl.Program, opts Options) error {
	ctx := NewContext(opts)
	return WMPipeline(ctx.Opts).Run(p, ctx)
}

// OptimizeScalar runs the compiler pipeline for a conventional target
// machine (the Table I experiments); see ScalarPipeline for the pass
// order and rationale.
func OptimizeScalar(p *rtl.Program, recurrence bool) error {
	ctx := NewContext(Options{Standard: true, Recurrence: recurrence, StrengthReduce: true})
	return ScalarPipeline(recurrence).Run(p, ctx)
}

// Fold applies constant folding and algebraic simplification to every
// instruction.  A compare keeps its top-level relational operator (the
// condition-code enqueue is a side effect folding must not erase);
// constant compares are resolved together with their branch instead.
// It reports whether anything changed.
func Fold(f *rtl.Func) bool {
	changed := false
	fold := func(e rtl.Expr) rtl.Expr {
		folded := rtl.FoldExpr(e)
		if !rtl.EqualExpr(folded, e) {
			changed = true
			return folded
		}
		return e
	}
	for _, i := range f.Code {
		if i.IsCompare() {
			b := i.Src.(rtl.Bin)
			i.Src = rtl.Bin{Op: b.Op, L: fold(b.L), R: fold(b.R)}
			continue
		}
		i.MapExprs(fold)
	}
	// A compare of two constants feeding a conditional jump becomes an
	// unconditional jump or disappears.
	for n := 0; n+1 < len(f.Code); n++ {
		cmp, jmp := f.Code[n], f.Code[n+1]
		if !cmp.IsCompare() || jmp.Kind != rtl.KCondJump {
			continue
		}
		b := cmp.Src.(rtl.Bin)
		l, lok := b.L.(rtl.Imm)
		r, rok := b.R.(rtl.Imm)
		if !lok || !rok {
			continue
		}
		v, ok := rtl.EvalIntOp(b.Op, l.V, r.V)
		if !ok {
			continue
		}
		taken := (v != 0) == jmp.Sense
		if taken {
			f.Code[n] = rtl.NewJump(jmp.Target)
			f.Remove(n + 1)
		} else {
			f.Remove(n + 1)
			f.Remove(n)
		}
		changed = true
	}
	return changed
}

// Pools of the register tables that passes build on every run.
var (
	intTables      cfg.RegMapPool[int]
	exprTables     cfg.RegMapPool[rtl.Expr]
	instrTables    cfg.RegMapPool[*rtl.Instr]
	intervalTables cfg.RegMapPool[interval]
	loopTablePool  = sync.Pool{New: func() any { return new(loopTables) }}
)

// DeadCode removes assignments whose destination is dead and which have
// no side effects, using global liveness.
func DeadCode(f *rtl.Func) (bool, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Liveness()
	dead := make([]bool, len(f.Code))
	found := false
	for _, b := range g.Blocks {
		g.LiveAtEach(b, func(idx int, i *rtl.Instr, after cfg.RegSet) {
			if i.Kind != rtl.KAssign || i.HasSideEffects() {
				return
			}
			// A plain assignment to the zero register is a no-op.
			if i.Dst.IsZero() || !after.Has(i.Dst) {
				dead[idx], found = true, true
			}
		})
	}
	if !found {
		return false, nil
	}
	out := f.Code[:0]
	for n, i := range f.Code {
		if !dead[n] {
			out = append(out, i)
		}
	}
	f.Code = out
	return true, nil
}

// AllIVAddrs is the scalar-machine strength-reduction predicate: every
// induction-variable address benefits from a derived pointer.
func AllIVAddrs(lin linform) bool { return lin.cee != 0 }
