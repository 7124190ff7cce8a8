package opt

import (
	"testing"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// TestLoopDriverBound: a visit that reports a change on every call
// never reaches a sweep without one.  The driver stops it at its bound
// with an error, and the sandbox rolls the function back and reports
// the pass degraded.
func TestLoopDriverBound(t *testing.T) {
	body := `
rv0 := 0
L1:
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`
	visits := 0
	spin := func(*loopWalk, *cfg.Loop) bool { visits++; return true }
	if _, err := walkLoops(parseFunc(t, body), "Spin", false, spin); err == nil {
		t.Fatalf("no error after %d visits", visits)
	}

	f := parseFunc(t, body)
	want := f.Listing()
	ctx := sandboxCtx()
	pass := NewPass("Spin", func(f *rtl.Func, _ *Context) (bool, error) {
		f.Append(&rtl.Instr{Kind: rtl.KRet}) // a change the rollback must undo
		return walkLoops(f, "Spin", false, spin)
	})
	if changed, err := runPass(pass, f, ctx); changed || err != nil {
		t.Fatalf("changed %v, err %v; want a contained failure", changed, err)
	}
	wantDegraded(t, ctx, "Spin", "no fixpoint")
	if f.Listing() != want {
		t.Errorf("function not rolled back:\n%s", f.Listing())
	}
}
