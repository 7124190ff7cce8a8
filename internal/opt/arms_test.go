package opt

import (
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// --- LICM from conditional arms --------------------------------------------------

// hoisted reports whether an assignment whose source prints as src
// sits before the loop header hdr.
func hoisted(f *rtl.Func, hdr, src string) bool {
	for n := 0; n < f.FindLabel(hdr); n++ {
		if i := f.Code[n]; i.Kind == rtl.KAssign && i.Src.String() == src {
			return true
		}
	}
	return false
}

// TestLICMHoistsFromConditionalArm: bubblesort's swap arm materializes
// the array's address on every swap; the arm does not dominate the
// latch, but the address is invariant, cannot trap and is read only
// after this, its only definition, so it moves to the preheader.
func TestLICMHoistsFromConditionalArm(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
r31 := (rv0 > 5)
jumpFr L2
rv1 := _a
r0 := rv0
s32r r0, ((rv0 << 2) + rv1)
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	if !chk(LICM(f)) || !hoisted(f, "L1", "_a") {
		t.Errorf("address of a not hoisted out of the arm:\n%s", listing(f))
	}
}

// TestLICMKeepsTrappingDivisionInArm: a division by a register may
// trap, and the arm may be exactly what guards it.
func TestLICMKeepsTrappingDivisionInArm(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
r31 := (r6 == 0)
jumpTr L2
rv1 := (r5 / r6)
puti rv1
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	if hoisted(f, "L1", "(r5 / r6)") {
		t.Errorf("trapping division hoisted out of its guard:\n%s", listing(f))
	}
}

// TestLICMKeepsArmDefOfLiveInValue: rv3 keeps its pre-loop value on
// every iteration that skips the arm, and the exit reads it; hoisting
// the arm's rv3 := 7 would print 7 when the arm never ran.
func TestLICMKeepsArmDefOfLiveInValue(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv3 := 5
L1:
r31 := (rv0 > r5)
jumpFr L2
rv3 := 7
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
puti rv3
halt`)
	chk(LICM(f))
	if hoisted(f, "L1", "7") {
		t.Errorf("arm definition of a live-in register hoisted:\n%s", listing(f))
	}
}

// TestLICMKeepsArmDefWithTwoDefs: rv1 is _a on one arm and _b on the
// other; each store must see its own arm's value.
func TestLICMKeepsArmDefWithTwoDefs(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
r31 := (rv0 > 5)
jumpFr L2
rv1 := _a
jump L3
L2:
rv1 := _b
L3:
r0 := rv0
s32r r0, rv1
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	if hoisted(f, "L1", "_a") || hoisted(f, "L1", "_b") {
		t.Errorf("one of two definitions hoisted:\n%s", listing(f))
	}
}

// --- constant index offsets folded into a hoisted base ------------------------

// swapArmRTL is bubblesort's swap loop after combining: the arm stores
// a[j] and a[j+1], and the address of a[j+1] costs rv62 := rv1 + 1 on
// every swap.  %s is spliced in after that definition.
const swapArmRTL = `
rv1 := 0
rv38 := _a
LP:
L8:
l32r r0, ((rv1 << 2) + rv38)
rv42 := r0
r31 := (rv42 > r5)
jumpFr L11
rv62 := (rv1 + 1)
%s
r0 := rv42
s32r r0, ((rv1 << 2) + rv38)
r0 := r5
s32r r0, ((rv62 << 2) + rv38)
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < 100)
jumpTr L8
halt`

// TestFoldOffsetIntoBase: the store's address becomes (rv1 << 2) plus
// a preheader base of _a + 4.
func TestFoldOffsetIntoBase(t *testing.T) {
	f := parseFunc(t, strings.Replace(swapArmRTL, "%s", "", 1))
	if !chk(StrengthReduce(f)) {
		t.Fatalf("offset not folded:\n%s", listing(f))
	}
	text := listing(f)
	if !hoisted(f, "L8", "(rv38 + 4)") ||
		strings.Count(text, "((rv1 << 2) + ") != 3 {
		t.Errorf("want a[j+1] addressed as (j << 2) + (_a + 4):\n%s", text)
	}
}

// foldRefused checks that StrengthReduce leaves the listing alone.
func foldRefused(t *testing.T, src string) {
	t.Helper()
	f := parseFunc(t, src)
	before := listing(f)
	if chk(StrengthReduce(f)) || listing(f) != before {
		t.Errorf("offset folded although the index register is needed:\n%s", listing(f))
	}
}

// TestFoldOffsetKeepsUsedIndex: rv62 is printed too, so its definition
// stays and folding would only add a preheader instruction.
func TestFoldOffsetKeepsUsedIndex(t *testing.T) {
	foldRefused(t, strings.Replace(swapArmRTL, "%s", "puti rv62", 1))
}

// TestFoldOffsetKeepsRedefinedRegister: rv1 changes between rv62's
// definition and the store, so (rv1 << 2) would address another
// element.
func TestFoldOffsetKeepsRedefinedRegister(t *testing.T) {
	src := strings.Replace(swapArmRTL, "%s", "rv1 := (rv1 + 2)", 1)
	src = strings.Replace(src, "L11:\nrv1 := (rv1 + 1)", "L11:\nrv9 := (rv9 + 1)", 1)
	src = strings.Replace(src, "(rv1 < 100)", "(rv9 < 100)", 1)
	foldRefused(t, src)
}

// TestLICMKeepsArgumentBeforeCall: the call returns its result in r2,
// so an argument set up in r2 inside the loop must be set up again on
// every iteration, though its only definition in the code is
// invariant.
func TestLICMKeepsArgumentBeforeCall(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv5 := 0
L1:
r2 := _g
call f
rv5 := (rv5 + r2)
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
puti rv5
halt`)
	chk(LICM(f))
	if hoisted(f, "L1", "_g") {
		t.Errorf("argument register set up once for every call:\n%s", listing(f))
	}
}
