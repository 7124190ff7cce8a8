package opt

import (
	"strings"
	"testing"
	"time"

	"wmstream/internal/diag"
	"wmstream/internal/rtl"
)

// mutableFunc returns a function with enough body that corruption and
// rollback are observable.
func mutableFunc() *rtl.Func {
	f := rtl.NewFunc("t")
	f.Append(rtl.NewLabel("L1"))
	f.Append(&rtl.Instr{Kind: rtl.KRet})
	return f
}

// sandboxCtx builds a context the way Pipeline.Run's fork does for a
// function named "t": sandbox on (the default), provenance set.
func sandboxCtx() *Context {
	ctx := NewContext(Options{})
	ctx.Func = "t"
	return ctx
}

func wantDegraded(t *testing.T, ctx *Context, pass, reason string) diag.Diagnostic {
	t.Helper()
	for _, d := range ctx.Diags() {
		if d.Pass != pass {
			continue
		}
		if d.Sev != diag.Degraded {
			t.Errorf("diagnostic for %s has severity %v, want Degraded", pass, d.Sev)
		}
		if d.Func != "t" {
			t.Errorf("diagnostic for %s names function %q, want %q", pass, d.Func, "t")
		}
		if !strings.Contains(d.Msg, reason) {
			t.Errorf("diagnostic %q does not mention %q", d.Msg, reason)
		}
		return d
	}
	t.Fatalf("no diagnostic for pass %s (have %v)", pass, ctx.Diags())
	return diag.Diagnostic{}
}

func TestSandboxContainsPanic(t *testing.T) {
	f := mutableFunc()
	want := f.Listing()
	calls := 0
	boom := NewPass("boom", func(f *rtl.Func, _ *Context) (bool, error) {
		calls++
		f.Append(&rtl.Instr{Kind: rtl.KRet}) // partial mutation before the crash
		panic("boom goes the pass")
	})
	// The pass appears twice: the second step must be skipped once the
	// first invocation degraded it.
	pl := Pipeline{Name: "test", Steps: []Step{{Pass: boom}, {Pass: boom}}}
	ctx := sandboxCtx()
	if err := pl.RunFunc(f, ctx); err != nil {
		t.Fatalf("sandboxed panic escaped as error: %v", err)
	}
	if got := f.Listing(); got != want {
		t.Errorf("function not rolled back:\n%s\nwant:\n%s", got, want)
	}
	if calls != 1 {
		t.Errorf("degraded pass ran %d times, want 1 (disabled after first failure)", calls)
	}
	wantDegraded(t, ctx, "boom", "panicked")
}

func TestSandboxRollsBackInvariantViolation(t *testing.T) {
	f := mutableFunc()
	want := f.Listing()
	corrupt := NewPass("corrupt", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KJump, Target: "Lnowhere"})
		return true, nil
	})
	ctx := sandboxCtx()
	if err := (Pipeline{Name: "test", Steps: []Step{{Pass: corrupt}}}).RunFunc(f, ctx); err != nil {
		t.Fatalf("contained corruption escaped as error: %v", err)
	}
	if got := f.Listing(); got != want {
		t.Errorf("function not rolled back:\n%s\nwant:\n%s", got, want)
	}
	wantDegraded(t, ctx, "corrupt", "invariant")
}

func TestSandboxReturnsErrorAsDegradation(t *testing.T) {
	f := mutableFunc()
	failing := NewPass("failing", func(f *rtl.Func, _ *Context) (bool, error) {
		return false, errTest
	})
	ctx := sandboxCtx()
	if err := (Pipeline{Name: "test", Steps: []Step{{Pass: failing}}}).RunFunc(f, ctx); err != nil {
		t.Fatalf("sandboxed error escaped: %v", err)
	}
	wantDegraded(t, ctx, "failing", "failed")
}

func TestSandboxBudgetOverrun(t *testing.T) {
	f := mutableFunc()
	want := f.Listing()
	slow := NewPass("slow", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KRet})
		time.Sleep(30 * time.Millisecond)
		return true, nil
	})
	ctx := sandboxCtx()
	ctx.PassBudget = time.Millisecond
	if err := (Pipeline{Name: "test", Steps: []Step{{Pass: slow}}}).RunFunc(f, ctx); err != nil {
		t.Fatalf("budget overrun escaped as error: %v", err)
	}
	if got := f.Listing(); got != want {
		t.Errorf("function not rolled back after overrun:\n%s\nwant:\n%s", got, want)
	}
	wantDegraded(t, ctx, "slow", "budget")
}

func TestSandboxFixpointNonConvergence(t *testing.T) {
	f := mutableFunc()
	want := f.Listing()
	churn := NewPass("churn", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KRet})
		return true, nil // never settles
	})
	pl := Pipeline{Name: "test", Steps: []Step{{Name: "g", Fixpoint: []Pass{churn}, MaxRounds: 3}}}
	ctx := sandboxCtx()
	if err := pl.RunFunc(f, ctx); err != nil {
		t.Fatalf("non-convergence escaped as error: %v", err)
	}
	if got := f.Listing(); got != want {
		t.Errorf("fixpoint group not rolled back:\n%s\nwant:\n%s", got, want)
	}
	wantDegraded(t, ctx, "[g]", "converge")
}

func TestSandboxRequiredPassStaysHardError(t *testing.T) {
	f := mutableFunc()
	fatal := NewPass("RegAlloc", func(f *rtl.Func, _ *Context) (bool, error) {
		return false, errTest
	})
	ctx := sandboxCtx()
	err := (Pipeline{Name: "test", Steps: []Step{{Pass: fatal}}}).RunFunc(f, ctx)
	if err == nil {
		t.Fatal("required-pass failure was swallowed by the sandbox")
	}
	if len(ctx.Diags()) != 0 {
		t.Errorf("required-pass failure also degraded: %v", ctx.Diags())
	}
}

func TestSandboxOffPropagatesPanic(t *testing.T) {
	f := mutableFunc()
	boom := NewPass("boom", func(f *rtl.Func, _ *Context) (bool, error) {
		panic("unsandboxed")
	})
	ctx := sandboxCtx()
	ctx.Sandbox = false
	defer func() {
		if recover() == nil {
			t.Error("panic did not propagate with the sandbox off")
		}
	}()
	_ = (Pipeline{Name: "test", Steps: []Step{{Pass: boom}}}).RunFunc(f, ctx)
}

// TestSandboxRollsBackToFaultingInvocation checks that a rollback keeps
// the work of every invocation before the fault — sandboxed and
// required passes alike — and undoes only the faulting one, both for a
// single pass and for a fixpoint group.
func TestSandboxRollsBackToFaultingInvocation(t *testing.T) {
	grow := func(name string) Pass {
		return NewPass(name, func(f *rtl.Func, _ *Context) (bool, error) {
			f.Code = append([]*rtl.Instr{rtl.NewLabel("L" + name)}, f.Code...)
			return true, nil
		})
	}
	boom := NewPass("boom", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KRet})
		panic("boom")
	})
	churn := NewPass("churn", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KRet})
		return true, nil
	})
	kept := []Step{{Pass: grow("A")}, {Pass: grow("Legalize")}, {Pass: grow("B")}}
	want := mutableFunc()
	for _, s := range kept {
		s.Pass.Run(want, nil)
	}
	for _, tc := range []struct {
		name  string
		fault Step
		pass  string
	}{
		{"pass", Step{Pass: boom}, "boom"},
		{"group", Step{Name: "g", Fixpoint: []Pass{churn}, MaxRounds: 3}, "[g]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := mutableFunc()
			ctx := sandboxCtx()
			pl := Pipeline{Name: "test", Steps: append(append([]Step(nil), kept...), tc.fault)}
			if err := pl.RunFunc(f, ctx); err != nil {
				t.Fatal(err)
			}
			if got := f.Listing(); got != want.Listing() {
				t.Errorf("rolled back to\n%s\nwant the state before the fault:\n%s", got, want.Listing())
			}
			wantDegraded(t, ctx, tc.pass, "")
		})
	}
}
