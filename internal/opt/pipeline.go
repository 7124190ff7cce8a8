package opt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wmstream/internal/rtl"
)

// Step is one element of a pipeline: either a single pass or a
// fixpoint group (a set of passes iterated until none of them changes
// the code).  OnChange steps run only when the step reported a change,
// which is how the pipelines express vpo's "re-invoke after any other
// phase" reruns as data.
type Step struct {
	// Pass is the transformation to run.  Exactly one of Pass and
	// Fixpoint must be set.
	Pass Pass
	// Fixpoint is a group of passes iterated together until a full
	// round changes nothing.
	Fixpoint []Pass
	// Name labels a fixpoint group in statistics (rendered bracketed);
	// unused for single passes.
	Name string
	// MaxRounds bounds fixpoint iteration (default 20; the groups
	// converge fast in practice).
	MaxRounds int
	// OnChange runs when this step changed the code.
	OnChange []Step
}

// fires reports whether the step changed the code.
func (s Step) run(f *rtl.Func, ctx *Context) (bool, error) {
	var changed bool
	var err error
	if s.Pass != nil {
		changed, err = runPass(s.Pass, f, ctx)
	} else {
		changed, err = runFixpoint(s, f, ctx)
	}
	if err != nil {
		return changed, err
	}
	if changed {
		for _, sub := range s.OnChange {
			if _, err := sub.run(f, ctx); err != nil {
				return true, err
			}
		}
	}
	return changed, nil
}

func runFixpoint(s Step, f *rtl.Func, ctx *Context) (bool, error) {
	max := s.MaxRounds
	if max == 0 {
		max = 20
	}
	name := "[" + s.Name + "]"
	if ctx.Sandbox && ctx.disabled[name] {
		return false, nil
	}
	mark := 0
	if ctx.Sandbox {
		mark = ctx.mark(f)
	}
	any := false
	rounds := 0
	converged := false
	for rounds < max {
		if err := ctx.canceled(); err != nil {
			ctx.stats.recordGroup(name, any, rounds)
			return any, err
		}
		rounds++
		changed := false
		for _, p := range s.Fixpoint {
			c, err := runPass(p, f, ctx)
			if err != nil {
				ctx.stats.recordGroup(name, any, rounds)
				return any, err
			}
			changed = changed || c
		}
		if !changed {
			converged = true
			break
		}
		any = true
	}
	// A group still changing the code after MaxRounds full rounds is
	// oscillating (two passes undoing each other): roll the whole group
	// back and disable it for this function.
	if ctx.Sandbox && !converged {
		ctx.rollback(f, mark)
		ctx.degrade(name, fmt.Sprintf("did not converge within %d rounds", max))
		ctx.stats.recordGroup(name, false, rounds)
		return false, nil
	}
	ctx.stats.recordGroup(name, any, rounds)
	return any, nil
}

// runPass executes one pass invocation.  Under the sandbox (the
// default, see sandbox.go), non-required passes are contained and
// rolled back on any fault; required passes — and every pass when the
// sandbox is off — run bare, so their failures abort the compilation
// of the function.  The sandbox logs a required pass that succeeded
// too: a rollback after it must replay it.
func runPass(p Pass, f *rtl.Func, ctx *Context) (bool, error) {
	if !ctx.Sandbox {
		return runInstrumented(p, f, ctx)
	}
	if !requiredPasses[p.Name()] {
		return runSandboxed(p, f, ctx)
	}
	changed, err := runInstrumented(p, f, ctx)
	if err == nil {
		ctx.keep(p)
	}
	return changed, err
}

// runInstrumented executes one pass invocation with instrumentation:
// wall time, fire count and instruction-count delta are recorded in
// the Context's Stats; with Debug set, the listing is dumped after
// every firing pass; with Verify set, the RTL invariant checker runs
// at the pass boundary.
func runInstrumented(p Pass, f *rtl.Func, ctx *Context) (bool, error) {
	before := instrCount(f)
	start := time.Now()
	changed, err := p.Run(f, ctx)
	dt := time.Since(start)
	delta := instrCount(f) - before
	ctx.stats.record(p.Name(), changed, dt, delta)
	if err != nil {
		return changed, fmt.Errorf("%s: %w", p.Name(), err)
	}
	if ctx.Debug != nil && changed {
		fmt.Fprintf(ctx.Debug, "==== %s: after %s (%+d instrs) ====\n%s",
			ctx.Func, p.Name(), delta, f.Listing())
	}
	if ctx.Verify {
		if err := verifyAfter(p, f, ctx); err != nil {
			return changed, err
		}
	}
	return changed, nil
}

// instrCount counts executable (non-label) instructions.
func instrCount(f *rtl.Func) int {
	n := 0
	for _, i := range f.Code {
		if i.Kind != rtl.KLabel {
			n++
		}
	}
	return n
}

// Pipeline is a pass order described as data.  The canonical
// constructors are WMPipeline and ScalarPipeline; ablation studies and
// tests can build their own.
type Pipeline struct {
	Name  string
	Steps []Step
}

// RunFunc runs the pipeline over a single function using ctx for
// parameters and instrumentation.
func (pl Pipeline) RunFunc(f *rtl.Func, ctx *Context) error {
	ctx.stats.Funcs++
	defer func() { ctx.journal = journal{} }()
	if ctx.Debug != nil {
		fmt.Fprintf(ctx.Debug, "==== %s: before %s pipeline ====\n%s", f.Name, pl.Name, f.Listing())
	}
	for _, s := range pl.Steps {
		if err := ctx.canceled(); err != nil {
			return err
		}
		if _, err := s.run(f, ctx); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the pipeline over every function of the program.
// Functions are independent, so they are optimized concurrently by a
// bounded worker pool (ctx.Workers, default GOMAXPROCS).  Statistics
// and errors are merged in function order, so the result — including
// the aggregate Stats and any error — is deterministic regardless of
// scheduling.  A non-nil ctx.Debug forces sequential execution so the
// per-pass dumps do not interleave.
func (pl Pipeline) Run(p *rtl.Program, ctx *Context) error {
	workers := ctx.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ctx.Debug != nil {
		workers = 1
	}
	if workers > len(p.Funcs) {
		workers = len(p.Funcs)
	}

	children := make([]*Context, len(p.Funcs))
	errs := make([]error, len(p.Funcs))
	optimize := func(idx int) {
		f := p.Funcs[idx]
		child := ctx.fork(f.Name)
		children[idx] = child
		if err := pl.RunFunc(f, child); err != nil {
			errs[idx] = fmt.Errorf("opt: %s: %w", f.Name, err)
		}
	}

	if workers <= 1 {
		for idx := range p.Funcs {
			optimize(idx)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range work {
					optimize(idx)
				}
			}()
		}
		for idx := range p.Funcs {
			work <- idx
		}
		close(work)
		wg.Wait()
	}

	for _, child := range children {
		if child != nil {
			ctx.stats.Merge(child.stats)
			ctx.diags = append(ctx.diags, child.diags...)
		}
	}
	return errors.Join(errs...)
}

// WMPipeline is the canonical WM compilation pipeline for the given
// options — the declarative form of the old hard-wired optimizeFunc.
func WMPipeline(o Options) Pipeline {
	return WMPipelineOrdered(o, StandardPasses())
}

// WMPipelineOrdered is WMPipeline with an explicit order for the
// standard-optimization fixpoint group.  Because the group runs to a
// fixpoint, any order converges to the same code (the paper's
// "re-invoked in any order" property); the permutation tests in
// internal/bench assert exactly that.
func WMPipelineOrdered(o Options, standard []Pass) Pipeline {
	o = o.withDefaults()
	fix := func() Step { return Step{Name: "standard", Fixpoint: standard} }
	var steps []Step
	if o.Standard {
		steps = append(steps, fix(), Step{Pass: PassLICM}, fix())
	}
	if o.Recurrence {
		s := Step{Pass: PassRecurrences}
		if o.Standard {
			s.OnChange = []Step{fix()}
		}
		steps = append(steps, s)
	}
	if o.Stream {
		s := Step{Pass: PassStreams}
		if o.Standard {
			s.OnChange = []Step{fix()}
		}
		steps = append(steps, s)
	}
	// Combining first folds address arithmetic into the dual-operation
	// loads and stores; strength reduction then only rewrites addresses
	// the instruction format cannot absorb (paper streaming step 3).
	if o.Combine {
		steps = append(steps, Step{Pass: PassCombine})
		if o.Standard {
			steps = append(steps, fix())
		}
	}
	if o.StrengthReduce {
		s := Step{Pass: PassStrengthReduce}
		if o.Standard {
			on := []Step{fix()}
			if o.Combine {
				on = append(on, Step{Pass: PassCombine}, fix())
			}
			s.OnChange = on
		}
		steps = append(steps, s)
	}
	if o.Stream || o.StrengthReduce {
		s := Step{Pass: PassDeadIVs}
		if o.Standard {
			s.OnChange = []Step{fix()}
		}
		steps = append(steps, s)
	}
	if o.Standard {
		// Schedule loop tests early so conditional jumps are free and
		// the IFU dispatches the next iteration's accesses while the
		// current one computes (the paper's CC-scheduling discipline).
		steps = append(steps, Step{Pass: PassScheduleLoopTest})
	}
	steps = append(steps,
		Step{Pass: PassLegalize},
		Step{Pass: PassRegAlloc},
		Step{Pass: PassCleanBranches},
		Step{Pass: PassRenumber},
	)
	return Pipeline{Name: "wm", Steps: steps}
}

// ScalarPipeline is the compilation pipeline for a conventional target
// machine (the Table I experiments): the standard optimizations,
// optionally the recurrence algorithm, and strength reduction of *all*
// induction-variable addressing (conventional addressing modes cannot
// absorb it the way WM's dual-operation loads can, and pointer
// stepping becomes auto-increment addressing — Figure 6).  Streaming
// and dual-operation combining are never run: the target has no SCUs
// and no two-operation instructions.
func ScalarPipeline(recurrence bool) Pipeline {
	fix := func() Step { return Step{Name: "standard", Fixpoint: StandardPasses()} }
	steps := []Step{fix(), {Pass: PassLICM}, fix()}
	if recurrence {
		steps = append(steps, Step{Pass: PassRecurrences, OnChange: []Step{fix()}})
	}
	steps = append(steps, Step{
		Pass:     PassStrengthReduceAll,
		OnChange: []Step{fix(), {Pass: PassDeadIVs}, fix()},
	})
	steps = append(steps,
		Step{Pass: PassLegalize},
		Step{Pass: PassRegAlloc},
		Step{Pass: PassCleanBranches},
		Step{Pass: PassRenumber},
	)
	return Pipeline{Name: "scalar", Steps: steps}
}
