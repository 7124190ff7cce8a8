package opt

import (
	"fmt"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// preheader returns the listing of the instructions before label hdr
// that follow the last earlier label, one per line.
func preheader(f *rtl.Func, hdr string) string {
	var out []string
	for _, i := range f.Code[:f.FindLabel(hdr)] {
		if i.Kind == rtl.KLabel {
			out = out[:0]
			continue
		}
		out = append(out, i.String())
	}
	return strings.Join(out, "\n")
}

// TestLICMKeepsLoadIntoLiveInRegister: the loop adds rv1 before it
// loads rv1, so the first iteration adds rv1's value from before the
// loop.  Hoisting the load would make it add _g's value instead.
func TestLICMKeepsLoadIntoLiveInRegister(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv1 := 1
rv2 := 0
L1:
rv2 := (rv2 + rv1)
l32r r0, _g
rv1 := r0
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
puti rv2
halt`)
	chk(LICM(f))
	if loadsInLoop(t, f, "L1") != 1 {
		t.Errorf("load into a register read before it hoisted:\n%s", listing(f))
	}
}

// TestLICMKeepsAssignReadInEarlierBlock: the header block reads rv1,
// and a later block that runs on every iteration sets it.  Its value
// from before the loop is read once, so the assignment stays.
func TestLICMKeepsAssignReadInEarlierBlock(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv1 := 1
rv2 := 0
L1:
rv2 := (rv2 + rv1)
r31 := (r5 == 0)
jumpTr L2
rv2 := (rv2 + 1)
L2:
rv1 := _g
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
puti rv2
halt`)
	chk(LICM(f))
	if hoisted(f, "L1", "_g") {
		t.Errorf("assignment to a register read before it hoisted:\n%s", listing(f))
	}
}

// TestLICMHoistsWideInvariantLoop: a loop reading 600 invariant globals
// keeps none of the loads.  LICM once moved one instruction per round
// and stopped at 500 rounds, leaving 100 loads in the loop.
func TestLICMHoistsWideInvariantLoop(t *testing.T) {
	var b strings.Builder
	b.WriteString("rv0 := 0\nrv1 := 0\nL1:\n")
	for k := 0; k < 600; k++ {
		fmt.Fprintf(&b, "l32r r0, _g%d\nrv%d := r0\nrv1 := (rv1 + rv%d)\n", k, k+2, k+2)
	}
	b.WriteString("rv0 := (rv0 + 1)\nr31 := (rv0 < 10)\njumpTr L1\nputi rv1\nhalt")
	f := parseFunc(t, b.String())
	if !chk(LICM(f)) || loadsInLoop(t, f, "L1") != 0 {
		t.Errorf("%d loads left in the loop", loadsInLoop(t, f, "L1"))
	}
}

// TestLICMMovesInOrder pins the order in which moves reach the
// preheader: that of moving one instruction per fresh analysis, a load
// pair before a reused load before an assignment, each the first in
// code order.  In each case a move makes a load movable or reusable,
// which goes before the next assignment, rv5 := _h, later in the code.
func TestLICMMovesInOrder(t *testing.T) {
	for _, c := range []struct{ name, body, want string }{{
		// The load of _n goes first although it comes last; the load
		// through rv1 follows the assignment that makes its address
		// invariant, and then the next assignment.
		"loads first", `
rv1 := _g0
l32r r0, rv1
rv2 := r0
rv9 := (rv9 + rv2)
rv3 := _g1
l32r r0, rv3
rv4 := r0
rv9 := (rv9 + rv4)
l32r r0, _n
rv6 := r0
puti rv6`, "l32r r0, _n|rv6 := r0|rv1 := _g0|l32r r0, rv1|rv2 := r0|rv3 := _g1|l32r r0, rv3|rv4 := r0|rv5 := _h",
	}, {
		// Moving rv7 := _g gives the arm's load through rv7 a fixed
		// address, whose value the hoisted load of _g left in rv8;
		// the reuse makes rv3 := rv8, which moves next.
		"address made fixed", `
rv7 := _g
l32r r0, _g
rv8 := r0
rv9 := (rv9 + rv8)
r31 := (rv9 > 100)
jumpFr L2
l32r r0, rv7
rv3 := r0
puti rv3
L2:`, "l32r r0, _g|rv8 := r0|rv7 := _g|rv3 := rv8|rv5 := _h",
	}, {
		// The hoisted load of _g holds the value the arm reloads.
		"load hoisted", `
r31 := (rv9 > 100)
jumpFr L2
l32r r0, _g
rv3 := r0
puti rv3
L2:
l32r r0, _g
rv8 := r0
rv9 := (rv9 + rv8)`, "l32r r0, _g|rv8 := r0|rv3 := rv8|rv5 := _h",
	}, {
		// Moving rv1 := _a makes the store's address _a+4, which
		// cannot touch the load of _a, so the load moves next.
		"store address fixed", `
rv1 := _a
r31 := (rv9 > 100)
jumpFr L2
puti rv9
L2:
r0 := rv0
s32r r0, (rv1 + 4)
l32r r0, _a
rv8 := r0
rv9 := (rv9 + rv8)`, "rv1 := _a|l32r r0, _a|rv8 := r0|rv5 := _h",
	}} {
		f := parseFunc(t, "rv0 := 0\nrv9 := 0\nL1:"+c.body+`
rv5 := _h
puti rv5
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
		chk(LICM(f))
		want := "rv0 := 0\nrv9 := 0\n" + strings.ReplaceAll(c.want, "|", "\n")
		if got := preheader(f, "L1"); got != want {
			t.Errorf("%s: preheader:\n%s\nwant:\n%s\nfunction:\n%s", c.name, got, want, listing(f))
		}
	}
}

// TestLICMKeepsLoadThroughMovedAddress: moving rv1 := _g makes the load
// through rv1 invariant; it reads _g, which the loop stores, so it
// stays.  The address is _g, as the definition moving out says, not _x,
// which rv1 held before the loop.
func TestLICMKeepsLoadThroughMovedAddress(t *testing.T) {
	f := parseFunc(t, `
rv1 := _x
puti rv1
rv0 := 0
L1:
rv1 := _g
l32r r0, rv1
rv2 := r0
r0 := rv0
s32r r0, _g
rv0 := (rv0 + rv2)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	if !hoisted(f, "L1", "_g") || loadsInLoop(t, f, "L1") != 1 {
		t.Errorf("want rv1 := _g hoisted and the load of _g kept:\n%s", listing(f))
	}
}

// TestLICMReusesStoredValue: the header stores rv6 into a[i], and the
// arm reloads a[i].  Nothing between writes a[i] again, so the reload
// takes rv6 and leaves the loop with no load.
func TestLICMReusesStoredValue(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
rv6 := (rv0 * 3)
r0 := rv6
s32r r0, ((rv0 << 2) + _a)
r31 := (rv6 > 50)
jumpFr L2
l32r r0, ((rv0 << 2) + _a)
rv7 := r0
puti rv7
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L1"); n != 0 {
		t.Errorf("%d loads in the loop, want the reload of a[i] replaced by rv6:\n%s", n, listing(f))
	}
}
