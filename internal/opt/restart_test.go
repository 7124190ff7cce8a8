package opt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// --- the restart rule: stop a stream around a writing arm --------------------

// primeLoopRTL is sieve's prime loop after its marking loop streamed:
//
//	for (i = 2; i < n; i++)
//	    if (flags[i]) { count++; for (k = i + i; k < n; k += i) flags[k] = 0; }
//
// The %s markers, in order, sit in the header before the flags[i]
// read, at the arm's top, and in the latch.
const primeLoopRTL = `
rv12 := _flags
l32r r0, _n
rv11 := r0
rv2 := 0
rv0 := 2
r31 := (2 < rv11)
jumpFr L10
LP:
L8:
%s
rv27 := (rv0 + rv12)
l8r r0, rv27
rv28 := r0
r31 := (rv28 != 0)
jumpFr L11
%s
rv2 := (rv2 + 1)
rv1 := (rv0 + rv0)
r31 := (rv1 < rv11)
jumpFr L14
rv56 := (rv11 - rv1)
rv57 := ((rv56 + rv0) - 1)
rv55 := (rv57 / rv0)
rv60 := _flags
rv61 := (rv1 + rv60)
sout8r r0, rv61, rv55, rv0
L12:
r0 := 0
rv1 := (rv1 + rv0)
jnd r0, L12
L14:
L11:
%s
rv0 := (rv0 + 1)
r31 := (rv0 < rv11)
jumpTr L8
L10:
puti rv2
halt`

func primeLoop(t *testing.T, header, arm, latch string) *rtl.Func {
	t.Helper()
	return parseFunc(t, fmt.Sprintf(primeLoopRTL, header, arm, latch))
}

// defOf returns the instruction defining the register e names (the
// fixtures here define each stream operand once).
func defOf(t *testing.T, f *rtl.Func, e rtl.Expr) *rtl.Instr {
	t.Helper()
	x, ok := e.(rtl.RegX)
	if ok {
		for _, i := range f.Code {
			if d, ok := i.Def(); ok && d == x.Reg {
				return i
			}
		}
	}
	t.Fatalf("no definition of %v:\n%s", e, listing(f))
	return nil
}

// TestRestartSieve: flags[i] streams from the preheader, the stream
// stops as the arm begins, before count++ and the marking loop's
// stream-out, and the arm's exit restarts it at flags[i+1] for the
// n-(i+1) trips left, skipping the restart when none are.  The loop
// keeps its compare exit.
func TestRestartSieve(t *testing.T) {
	f := primeLoop(t, "", "", "")
	if !chk(Streams(f, 4)) {
		t.Fatalf("prime loop not streamed:\n%s", listing(f))
	}
	text := listing(f)
	if countKind(f, rtl.KLoad) != 1 || countKind(f, rtl.KStreamIn) != 2 || countKind(f, rtl.KStreamStop) != 1 {
		t.Fatalf("want n's load alone scalar, two stream-ins and one stop:\n%s", text)
	}
	var stop, restart int
	for n, i := range f.Code {
		switch {
		case i.Kind == rtl.KStreamStop:
			stop = n
		case i.Kind == rtl.KStreamIn && i.Note == "restart stream":
			restart = n
		}
	}
	if f.Code[stop-1].Kind != rtl.KCondJump || f.Code[stop+1].String() != "rv2 := (rv2 + 1)" {
		t.Errorf("stop not at the arm's top:\n%s", text)
	}
	sin := f.Code[restart]
	if sin.FIFO != rtl.R1 || f.Code[restart+1].Kind != rtl.KLabel || f.Code[restart+1].Name != "L11" {
		t.Errorf("restart not on r1 at the arm's exit (the arm's stream-out holds r0):\n%s", text)
	}
	// Base (next << 0) + origin and count rv11 - next, next = i + 1.
	next := defOf(t, f, defOf(t, f, sin.Base).Src.(rtl.Bin).L.(rtl.Bin).L)
	if next.Src.String() != "(rv0 + 1)" {
		t.Errorf("restart begins at %v, want the next element, i+1:\n%s", next, text)
	}
	if c := defOf(t, f, sin.Count); c.Src.String() != fmt.Sprintf("(rv11 - %v)", next.Dst) {
		t.Errorf("restart count %v, want n-(i+1):\n%s", c, text)
	}
	if skip := f.Code[restart-2]; skip.Kind != rtl.KCondJump || skip.Target != "L11" || skip.Sense {
		t.Errorf("no skip of the restart when no trips are left:\n%s", text)
	}
	if countKind(f, rtl.KJumpNotDone) != 1 || !strings.Contains(text, "jumpTr L8") {
		t.Errorf("the loop lost its compare exit:\n%s", text)
	}
}

// TestRestartBesideOtherRegion: a store outside the arm to another
// global cannot reach flags, so the read still streams.
func TestRestartBesideOtherRegion(t *testing.T) {
	f := primeLoop(t, "", "", "r0 := rv2\ns32r r0, ((rv0 << 2) + _out)")
	if !chk(Streams(f, 4)) || !strings.Contains(listing(f), "restart stream") {
		t.Errorf("store to another region blocked the restart:\n%s", listing(f))
	}
}

// refusesRestart checks that Streams leaves the loop byte-identical.
func refusesRestart(t *testing.T, f *rtl.Func) {
	t.Helper()
	before := listing(f)
	if chk(Streams(f, 4)) || listing(f) != before {
		t.Errorf("restart rule applied:\n%s", listing(f))
	}
}

// TestRestartRefusesWriteOutsideArm: flags[i+1] = 1 in the latch may
// land on an element the stream has fetched.
func TestRestartRefusesWriteOutsideArm(t *testing.T) {
	refusesRestart(t, primeLoop(t, "", "", "r0 := 1\ns8r r0, ((rv0 + rv12) + 1)"))
}

// TestRestartRefusesTwoEntryArm: after reading flags[i] the header may
// also jump straight into the marking loop's preheader, so the writes
// can be reached both past count++ and around it, and no one block
// opens an arm around them.
func TestRestartRefusesTwoEntryArm(t *testing.T) {
	src := strings.Replace(fmt.Sprintf(primeLoopRTL, "", "", ""), "r31 := (rv28 != 0)",
		"r31 := (rv28 == 5)\njumpTr LM\nr31 := (rv28 != 0)", 1)
	src = strings.Replace(src, "rv56 := (rv11 - rv1)", "LM:\nrv56 := (rv11 - rv1)", 1)
	refusesRestart(t, parseFunc(t, src))
}

// TestRestartRefusesConditionalRead: with the increment at the top of
// the body, flags[i] is read only for odd i, so a stream would hand an
// even iteration's element to the next odd one.
func TestRestartRefusesConditionalRead(t *testing.T) {
	src := fmt.Sprintf(primeLoopRTL, "rv0 := (rv0 + 1)\nr31 := ((rv0 & 1) != 0)\njumpFr L11", "", "")
	src = strings.Replace(src, "rv0 := (rv0 + 1)\nr31 := (rv0 < rv11)", "r31 := (rv0 < rv11)", 1)
	refusesRestart(t, parseFunc(t, src))
}

// TestRestartRefusesDequeueAfterCompare: the arm's guard tests i, and
// flags[i] leaves the FIFO only after that compare, so the fetch unit
// could reach the stop while the execute unit has yet to dequeue the
// element; the stop would discard it.
func TestRestartRefusesDequeueAfterCompare(t *testing.T) {
	src := strings.Replace(fmt.Sprintf(primeLoopRTL, "", "", "rv2 := (rv2 + rv28)"),
		"rv28 := r0\nr31 := (rv28 != 0)", "r31 := ((rv0 & 3) != 0)\nrv28 := r0", 1)
	refusesRestart(t, parseFunc(t, src))
}

// TestRestartRefusesCallInArm: a callee may write flags anywhere and
// use any FIFO.
func TestRestartRefusesCallInArm(t *testing.T) {
	refusesRestart(t, primeLoop(t, "", "r2 := rv0\ncall mark", ""))
}

// sieveProgram is the whole sieve (ten passes over n = 300 flags) in
// the form the code expander hands the optimizer.
const sieveProgram = `
.entry _start
.data flags 300 align=1
.data n 4 align=4 init=2c010000
.func main frame=0
rv3 := 0
rv10 := _n
l32r r0, rv10
rv11 := r0
rv12 := _flags
L2:
rv0 := 0
r31 := (0 < rv11)
jumpFr L7
L5:
rv14 := (rv0 + rv12)
r0 := 1
s8r r0, rv14
rv0 := (rv0 + 1)
r31 := (rv0 < rv11)
jumpTr L5
L7:
rv2 := 0
rv0 := 2
r31 := (2 < rv11)
jumpFr L10
L8:
rv27 := (rv0 + rv12)
l8r r0, rv27
rv28 := r0
r31 := (rv28 != 0)
jumpFr L11
rv2 := (rv2 + 1)
rv1 := (rv0 + rv0)
r31 := (rv1 < rv11)
jumpFr L14
L12:
rv38 := (rv1 + rv12)
r0 := 0
s8r r0, rv38
rv1 := (rv1 + rv0)
r31 := (rv1 < rv11)
jumpTr L12
L14:
L11:
rv0 := (rv0 + 1)
r31 := (rv0 < rv11)
jumpTr L8
L10:
rv3 := (rv3 + 1)
r31 := (rv3 < 10)
jumpTr L2
puti rv2
r2 := 0
ret
.end
.func _start frame=0
call main
halt
.end
`

// TestRestartSieveRuns: at O3 the sieve restarts its prime loop's
// stream and still counts the 62 primes below 300 on both engines, at
// FIFO depths that prefetch past the next prime's multiples.
func TestRestartSieveRuns(t *testing.T) {
	p, err := rtl.Parse(sieveProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := Optimize(p, Level(3)); err != nil {
		t.Fatal(err)
	}
	if text := p.Func("main").Listing(); !strings.Contains(text, "restart stream") {
		t.Fatalf("no restart:\n%s", text)
	}
	img, err := sim.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{2, 8, 32} {
		for _, eng := range []sim.Engine{sim.EngineTranslated, sim.EngineReference} {
			var out bytes.Buffer
			cfg := sim.DefaultConfig()
			cfg.FIFODepth, cfg.Engine, cfg.Output = depth, eng, &out
			if _, err := sim.New(img, cfg).Run(); err != nil {
				t.Fatalf("fifo %d, %v: %v", depth, eng, err)
			}
			if out.String() != "62" {
				t.Errorf("fifo %d, %v: printed %q, want 62", depth, eng, out.String())
			}
		}
	}
}
