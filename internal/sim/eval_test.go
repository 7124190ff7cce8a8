package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// Edge cases of the compiled-expression evaluator (decode.go/eval.go):
// arithmetic faults must trap with the pre-formatted decode-time
// message, wrapping must follow two's complement, and the two engines
// must agree on all of it.

// runBothEngines assembles and executes a program under the reference
// and translated engines, asserts they agree on the outcome, and
// returns the translated machine and the shared error ("" on success).
func runBothEngines(t *testing.T, cfg Config, src string) (*Machine, string) {
	t.Helper()
	p, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	exec := func(eng Engine) (*Machine, string, string) {
		c := cfg
		c.Engine = eng
		var out bytes.Buffer
		c.Output = &out
		m := New(img, c)
		_, rerr := m.Run()
		es := ""
		if rerr != nil {
			es = rerr.Error()
		}
		return m, out.String(), es
	}
	_, refOut, refErr := exec(EngineReference)
	tm, trOut, trErr := exec(EngineTranslated)
	if refErr != trErr {
		t.Fatalf("engines disagree on error:\nreference:  %s\ntranslated: %s", refErr, trErr)
	}
	if refOut != trOut {
		t.Fatalf("engines disagree on output: %q vs %q", refOut, trOut)
	}
	return tm, trErr
}

// expectTrap runs the program and requires a *TrapError whose reason
// contains want, identically under both engines.
func expectTrap(t *testing.T, src, want string) {
	t.Helper()
	p, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	for _, eng := range []Engine{EngineReference, EngineTranslated} {
		cfg := DefaultConfig()
		cfg.Engine = eng
		m := New(img, cfg)
		_, rerr := m.Run()
		var trap *TrapError
		if !errors.As(rerr, &trap) {
			t.Fatalf("engine %d: error is %T (%v), want *TrapError", eng, rerr, rerr)
		}
		if !strings.Contains(trap.Reason, want) {
			t.Errorf("engine %d: trap reason %q, want substring %q", eng, trap.Reason, want)
		}
	}
}

func TestEvalDivideByZeroTrap(t *testing.T) {
	expectTrap(t, `
.entry main
.func main
r2 := 0
r3 := (4 / r2)
halt
.end
`, "int op / failed (division by zero or bad shift)")
}

func TestEvalRemainderByZeroTrap(t *testing.T) {
	// The remainder operator prints as % — the fault path must not
	// misinterpret it as a format directive.
	expectTrap(t, `
.entry main
.func main
r2 := 0
r3 := (4 % r2)
halt
.end
`, "int op % failed (division by zero or bad shift)")
}

func TestEvalShiftOutOfRangeTrap(t *testing.T) {
	expectTrap(t, `
.entry main
.func main
r2 := 64
r3 := (1 << r2)
halt
.end
`, "int op << failed (division by zero or bad shift)")
	expectTrap(t, `
.entry main
.func main
r2 := 0
r3 := (r2 - 1)
r4 := (1 >> r3)
halt
.end
`, "int op >> failed (division by zero or bad shift)")
}

func TestEvalFloatDivideByZeroTrap(t *testing.T) {
	expectTrap(t, `
.entry main
.func main
f2 := 1.5f
f3 := 0.0f
f4 := (f2 / f3)
halt
.end
`, "float op / failed (division by zero?)")
}

func TestEvalIntegerOverflowWraps(t *testing.T) {
	// (2^62 + (2^62 - 1)) = MaxInt64; adding 1 must wrap to MinInt64,
	// and negating MinInt64 must stay MinInt64 (two's complement).
	m, errStr := runBothEngines(t, DefaultConfig(), `
.entry main
.func main
r2 := 1
r3 := (r2 << 62)
r4 := ((r3 - 1) + r3)
r5 := (r4 + 1)
r6 := (0 - r5)
halt
.end
`)
	if errStr != "" {
		t.Fatalf("run: %s", errStr)
	}
	const maxInt64 = int64(^uint64(0) >> 1)
	if got := int64(m.Reg(rtl.R(4))); got != maxInt64 {
		t.Errorf("r4 = %d, want MaxInt64", got)
	}
	if got := int64(m.Reg(rtl.R(5))); got != -maxInt64-1 {
		t.Errorf("r5 = %d, want MinInt64", got)
	}
	if got := int64(m.Reg(rtl.R(6))); got != -maxInt64-1 {
		t.Errorf("r6 = %d, want MinInt64 (negation wraps)", got)
	}
}

func TestEvalMixedFIFOAndScalarOperands(t *testing.T) {
	// A FIFO dequeue inside a larger expression: operand order is the
	// compiled left-to-right order, so r0 pops exactly once per read
	// and interleaves with scalar operands identically in both engines.
	data := make([]byte, 3*4)
	for k, v := range []uint32{10, 20, 30} {
		data[k*4] = byte(v)
	}
	m, errStr := runBothEngines(t, DefaultConfig(), `
.entry main
.data seq 12 align=4 init=`+hexOf(data)+`
.func main
r5 := 3
r6 := _seq
sin32r r0, r6, r5, 4
r3 := ((r0 + r0) * 2)
r4 := (r0 + 1)
halt
.end
`)
	if errStr != "" {
		t.Fatalf("run: %s", errStr)
	}
	if got := int64(m.Reg(rtl.R(3))); got != 60 {
		t.Errorf("r3 = %d, want 60", got)
	}
	if got := int64(m.Reg(rtl.R(4))); got != 31 {
		t.Errorf("r4 = %d, want 31", got)
	}
}
