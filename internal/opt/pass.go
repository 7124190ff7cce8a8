package opt

import (
	"context"
	"io"
	"time"

	"wmstream/internal/diag"
	"wmstream/internal/rtl"
)

// Pass is one optimizer transformation reified as data.  Every
// transformation in this package is wrapped as a Pass so pipelines can
// describe ordering, fixpoint iteration and conditional reruns
// declaratively (pipeline.go) instead of hard-coding one phase order —
// the property the paper credits vpo for ("phases can be re-invoked in
// any order").
type Pass interface {
	// Name identifies the pass in listings, statistics and errors.
	Name() string
	// Run applies the transformation to one function.  It reports
	// whether the code changed; an error means the function could not
	// be compiled (e.g. register allocation ran out of registers).
	Run(f *rtl.Func, ctx *Context) (changed bool, err error)
}

// Context carries per-run configuration into passes and accumulates
// per-pass statistics while a pipeline runs.  A Context must not be
// shared between concurrently optimized functions; the parallel engine
// forks one child Context per function and merges the statistics
// deterministically afterwards (pipeline.go).
type Context struct {
	// Opts parameterizes passes (MinTrip, MaxRecurrenceDegree, ...).
	Opts Options
	// Func is the name of the function being optimized (diagnostics).
	Func string
	// Debug, when non-nil, receives vpo-style per-pass RTL dumps: the
	// listing of every function before optimization and after each
	// pass invocation that changed the code.  Setting Debug forces the
	// engine to run functions sequentially so dumps do not interleave.
	Debug io.Writer
	// Verify runs the RTL invariant checker (verify.go) after every
	// pass invocation, so a pass that corrupts the IR is caught at the
	// pass boundary instead of in the simulator.
	Verify bool
	// Workers bounds the per-function worker pool of Pipeline.Run.
	// Zero means GOMAXPROCS.
	Workers int
	// Sandbox contains pass faults (sandbox.go): a panic, invariant
	// violation or budget overrun of a non-required pass, or a
	// fixpoint group's non-convergence, rolls the function back to its
	// state before that invocation or group, records a Degraded
	// diagnostic and disables the pass for that function instead of
	// failing the compilation.
	Sandbox bool
	// PassBudget is the wall-clock budget for one pass invocation under
	// the sandbox.  Zero means DefaultPassBudget.
	PassBudget time.Duration
	// Ctx, when non-nil, cancels the compilation cooperatively: the
	// pipeline engine checks it between passes (and between fixpoint
	// rounds) and aborts with the context's error.  Used by the serving
	// layer to enforce per-request deadlines.
	Ctx context.Context

	// allocated is set once register assignment has run; from then on
	// the invariant checker rejects virtual registers.
	allocated bool

	// diags collects degradation events (and other structured
	// diagnostics) for this context; children are merged back into the
	// parent in function order by Pipeline.Run.
	diags []diag.Diagnostic
	// disabled marks passes (or bracketed fixpoint groups) the sandbox
	// switched off for the current function.
	disabled map[string]bool
	// journal holds the sandbox's snapshot of the function and the
	// pass invocations kept since, for rollback by replay.
	journal journal

	stats *Stats
}

// NewContext returns a Context with the option defaults applied
// (MinTrip 4, MaxRecurrenceDegree 4, matching the paper's choices).
// Fault containment (Sandbox) is on by default: a faulty optimization
// degrades the function instead of failing the compilation.
func NewContext(opts Options) *Context {
	return &Context{Opts: opts.withDefaults(), Sandbox: true, stats: NewStats()}
}

// Stats returns the statistics accumulated so far.
func (c *Context) Stats() *Stats { return c.stats }

// Diags returns the structured diagnostics collected so far (pass
// degradation events recorded by the sandbox).
func (c *Context) Diags() []diag.Diagnostic {
	return append([]diag.Diagnostic(nil), c.diags...)
}

// fork returns a child context for optimizing one function.  The child
// gets its own Stats, diagnostics and disabled-pass set so concurrent
// functions never share mutable state; Run merges children back in
// function order.
func (c *Context) fork(fn string) *Context {
	child := *c
	child.Func = fn
	child.stats = NewStats()
	child.diags = nil
	child.disabled = nil
	return &child
}

// canceled reports the context's error once the compilation's deadline
// has passed or it has been canceled (nil otherwise, including when no
// context is attached).
func (c *Context) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// withDefaults fills in the paper's default parameters.
func (o Options) withDefaults() Options {
	if o.MinTrip == 0 {
		o.MinTrip = 4
	}
	if o.MaxRecurrenceDegree == 0 {
		o.MaxRecurrenceDegree = 4
	}
	return o
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	run  func(f *rtl.Func, ctx *Context) (bool, error)
}

func (p passFunc) Name() string { return p.name }
func (p passFunc) Run(f *rtl.Func, ctx *Context) (bool, error) {
	return p.run(f, ctx)
}

// NewPass wraps run as a named Pass.
func NewPass(name string, run func(f *rtl.Func, ctx *Context) (bool, error)) Pass {
	return passFunc{name, run}
}

// boolPass wraps the common transformation shape func(*rtl.Func) bool.
func boolPass(name string, run func(*rtl.Func) bool) Pass {
	return passFunc{name, func(f *rtl.Func, _ *Context) (bool, error) {
		return run(f), nil
	}}
}

// errPass wraps the transformation shape func(*rtl.Func) (bool, error)
// — passes whose control-flow analysis can reject the input (a branch
// to an unknown label in hand-written assembly).
func errPass(name string, run func(*rtl.Func) (bool, error)) Pass {
	return passFunc{name, func(f *rtl.Func, _ *Context) (bool, error) {
		return run(f)
	}}
}

// The full pass registry.  Each existing transformation keeps its
// plain-function form (Fold, CSE, ...); these wrappers are the data
// the pipeline layer composes.
var (
	PassFold             = boolPass("Fold", Fold)
	PassCopyProp         = errPass("CopyProp", CopyProp)
	PassSinkCopies       = errPass("SinkCopies", SinkCopies)
	PassCSE              = errPass("CSE", CSE)
	PassDeadCode         = errPass("DeadCode", DeadCode)
	PassCleanBranches    = boolPass("CleanBranches", CleanBranches)
	PassLICM             = errPass("LICM", LICM)
	PassCombine          = errPass("Combine", Combine)
	PassDeadIVs          = errPass("DeadIVs", DeadIVs)
	PassScheduleLoopTest = errPass("ScheduleLoopTest", ScheduleLoopTest)

	// PassRecurrences reads MaxRecurrenceDegree from the Context (the
	// paper: a recurrence of degree d consumes d+1 registers).
	PassRecurrences = NewPass("Recurrences", func(f *rtl.Func, ctx *Context) (bool, error) {
		return Recurrences(f, ctx.Opts.MaxRecurrenceDegree)
	})
	// PassStreams reads MinTrip from the Context (paper step 1: "three
	// or fewer, do not use streams").
	PassStreams = NewPass("Streams", func(f *rtl.Func, ctx *Context) (bool, error) {
		return Streams(f, ctx.Opts.MinTrip)
	})
	// PassStrengthReduce uses the WM predicate: only addresses the
	// dual-operation instruction format cannot absorb are rewritten.
	PassStrengthReduce = errPass("StrengthReduce", StrengthReduce)
	// PassStrengthReduceAll uses the conventional-machine predicate:
	// every induction-variable address benefits from a derived pointer
	// (auto-increment addressing, Figure 6).
	PassStrengthReduceAll = NewPass("StrengthReduceAll", func(f *rtl.Func, _ *Context) (bool, error) {
		return StrengthReduceWith(f, AllIVAddrs)
	})

	PassLegalize = NewPass("Legalize", func(f *rtl.Func, _ *Context) (bool, error) {
		return false, Legalize(f)
	})
	// PassRegAlloc flips the Context into "allocated" mode so the
	// invariant checker starts rejecting virtual registers.
	PassRegAlloc = NewPass("RegAlloc", func(f *rtl.Func, ctx *Context) (bool, error) {
		if err := RegAlloc(f); err != nil {
			return false, err
		}
		ctx.allocated = true
		return true, nil
	})
	PassRenumber = NewPass("Renumber", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Renumber()
		return false, nil
	})
)

// StandardPasses returns the classic scalar optimizations in their
// canonical fixpoint order.  The permutation tests in internal/bench
// exercise the paper's "any order" property by shuffling this slice.
func StandardPasses() []Pass {
	return []Pass{PassFold, PassCopyProp, PassSinkCopies, PassCSE, PassDeadCode, PassCleanBranches}
}

// AllPasses returns every registered pass (for tooling and tests).
func AllPasses() []Pass {
	return []Pass{
		PassFold, PassCopyProp, PassSinkCopies, PassCSE, PassDeadCode,
		PassCleanBranches, PassLICM, PassRecurrences, PassStreams,
		PassCombine, PassStrengthReduce, PassStrengthReduceAll,
		PassDeadIVs, PassScheduleLoopTest, PassLegalize, PassRegAlloc,
		PassRenumber,
	}
}
