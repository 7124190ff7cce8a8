package opt

import (
	"fmt"
	"time"

	"wmstream/internal/diag"
	"wmstream/internal/rtl"
)

// Pass sandboxing: the fault-containment layer of the optimizer.
//
// Every transformation in this package is optimization-only — skipping
// it must yield correct (if slower) code.  The sandbox exploits that:
// the first time a function reaches a sandboxed pass, it is snapshotted
// once (rtl.Func.Clone), and from then on every pass invocation that
// runs on it and is kept is logged in a journal.  A non-required pass
// executes under recover().  A panic, a returned error, an IR
// invariant violation (rtl.CheckFunc) after a change, or a wall-clock
// budget overrun rolls the function back — the snapshot is restored
// and the logged invocations are replayed, which rebuilds the function
// exactly as it stood before the faulting invocation, since passes are
// deterministic — then records a Degraded diagnostic naming the pass
// and the function, and disables the pass for the rest of this
// function's pipeline.  The same containment applies to a fixpoint
// group that fails to converge within its round bound: the replay
// stops where the group began.  The result: a buggy O2/O3 transform
// produces the code that skipping it from that invocation on would
// have produced, plus a diagnostic, instead of killing the
// compilation.  Faults are rare, so the common path pays for one copy
// of each function instead of one per pass invocation.

// DefaultPassBudget is the wall-clock budget for a single pass
// invocation under the sandbox when Context.PassBudget is zero.  Real
// passes finish in microseconds; the generous default only catches
// runaway (livelocked) transformations.
const DefaultPassBudget = 10 * time.Second

// InjectFault is a test hook: when non-nil it is consulted before each
// sandboxed pass invocation and may return a fault to run in place of
// the pass — "panic" (the pass panics), "error" (it returns an error),
// "corrupt" (it damages the IR and reports a change), or "hang" (it
// sleeps past the budget) — or "skip", under which the invocation
// reports no change without running and is not logged for replay.  An
// empty string runs the pass normally.
// Production builds leave this nil; fault-containment tests use it to
// prove that any of these failure modes degrades instead of breaking
// the compilation.
var InjectFault func(pass, fn string) string

func runInjectedFault(mode string, f *rtl.Func, budget time.Duration) (bool, error) {
	switch mode {
	case "panic":
		panic("injected fault")
	case "error":
		return false, fmt.Errorf("injected fault")
	case "corrupt":
		f.Code = append(f.Code, &rtl.Instr{Kind: rtl.KJump, Target: "L<injected-bogus-label>"})
		return true, nil
	case "hang":
		time.Sleep(budget + 50*time.Millisecond)
		return false, nil
	}
	return false, fmt.Errorf("unknown injected fault %q", mode)
}

// requiredPasses must run for the output to be executable at all
// (virtual registers eliminated, WM instruction shapes legal, code
// addresses renumbered).  Their failures stay hard errors: there is no
// correct fallback.
var requiredPasses = map[string]bool{
	"Legalize": true,
	"RegAlloc": true,
	"Renumber": true,
}

// degrade records a Degraded diagnostic for the named pass (or
// bracketed fixpoint group) and disables it for the current function.
func (c *Context) degrade(pass, reason string) {
	if c.disabled == nil {
		c.disabled = map[string]bool{}
	}
	c.disabled[pass] = true
	c.diags = append(c.diags, diag.Diagnostic{
		Sev:   diag.Degraded,
		Stage: "opt",
		Pass:  pass,
		Func:  c.Func,
		Msg:   reason,
	})
}

// journal is the sandbox's rollback state for one function: a copy of
// the function taken before its first sandboxed pass, and every pass
// invocation that ran on it and was kept since.  Pipeline.RunFunc
// clears it when the function is done.
type journal struct {
	snap *rtl.Func
	kept []Pass
}

// mark returns the position rollback(f, n) returns f to: the number of
// invocations kept so far.  The first mark snapshots f.
func (c *Context) mark(f *rtl.Func) int {
	if c.journal.snap == nil {
		c.journal.snap = f.Clone()
	}
	return len(c.journal.kept)
}

// keep logs an invocation that ran and was kept.  Invocations before
// the snapshot are in it and need no log.
func (c *Context) keep(p Pass) {
	if c.journal.snap != nil {
		c.journal.kept = append(c.journal.kept, p)
	}
}

// rollback returns f to its state at mark n: it restores a copy of the
// snapshot (the snapshot itself stays, for a later fault or an
// enclosing group) and replays the first n kept invocations, without
// instrumentation.  A replayed pass sees the state it saw the first
// time, so it does the same again.
func (c *Context) rollback(f *rtl.Func, n int) {
	f.Restore(c.journal.snap.Clone())
	for _, p := range c.journal.kept[:n] {
		p.Run(f, c)
	}
	c.journal.kept = c.journal.kept[:n]
}

// runSandboxed executes one non-required pass invocation inside the
// containment envelope described above.  It never returns an error:
// every failure mode degrades instead.
func runSandboxed(p Pass, f *rtl.Func, ctx *Context) (changed bool, err error) {
	name := p.Name()
	if ctx.disabled[name] {
		return false, nil
	}
	mode := ""
	if InjectFault != nil {
		if mode = InjectFault(name, ctx.Func); mode == "skip" {
			return false, nil
		}
	}
	mark := ctx.mark(f)
	budget := ctx.PassBudget
	if budget <= 0 {
		budget = DefaultPassBudget
	}

	var panicked any
	start := time.Now()
	changed, err = func() (c bool, e error) {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
			}
		}()
		if mode != "" {
			return runInjectedFault(mode, f, budget)
		}
		return runInstrumented(p, f, ctx)
	}()
	elapsed := time.Since(start)

	reason := ""
	switch {
	case panicked != nil:
		reason = fmt.Sprintf("panicked: %v", panicked)
	case err != nil:
		reason = fmt.Sprintf("failed: %v", err)
	case elapsed > budget:
		reason = fmt.Sprintf("overran its budget (%v > %v)", elapsed, budget)
	case changed:
		// A pass that touched the code must leave the IR invariants
		// intact; ctx.Verify would also catch this, but the sandbox
		// checks unconditionally — containment must not depend on
		// debug settings.
		if cerr := rtl.CheckFunc(f, !ctx.allocated); cerr != nil {
			reason = fmt.Sprintf("violated an IR invariant: %v", cerr)
		}
	}
	if reason == "" {
		ctx.keep(p)
		return changed, nil
	}
	ctx.rollback(f, mark)
	ctx.degrade(name, reason)
	return false, nil
}
