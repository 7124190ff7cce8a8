package opt

import (
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// loadsInLoop counts the loads between the label and the last branch
// back to it.
func loadsInLoop(t *testing.T, f *rtl.Func, label string) int {
	t.Helper()
	hdr := f.FindLabel(label)
	latch := -1
	for n, i := range f.Code {
		if (i.Kind == rtl.KCondJump || i.Kind == rtl.KJump) && i.Target == label {
			latch = n
		}
	}
	if hdr < 0 || latch < hdr {
		t.Fatalf("loop %s not found:\n%s", label, listing(f))
	}
	loads := 0
	for n := hdr; n < latch; n++ {
		if f.Code[n].Kind == rtl.KLoad {
			loads++
		}
	}
	return loads
}

// --- the region rule in LICM --------------------------------------------------

// sieveRTL is sieve's prime loop: the marking loop's k (rv1) has two
// definitions in the outer loop, so its store does not linearize there.
const sieveRTL = `
rv0 := 2
rv2 := _flags
rv3 := _n
L1:
rv1 := (rv0 + rv0)
L2:
r0 := 0
s8r r0, (rv1 + rv2)
rv1 := (rv1 + rv0)
l32r r0, rv3
rv4 := r0
r31 := (rv1 < rv4)
jumpTr L2
rv0 := (rv0 + 1)
l32r r0, rv3
rv5 := r0
r31 := (rv0 < rv5)
jumpTr L1
halt`

// TestLICMHoistsPastOtherRegionStore: flags[k] names region _flags by
// the region rule even though its address does not linearize in the
// outer loop, so both loads of n leave the prime loop.
func TestLICMHoistsPastOtherRegionStore(t *testing.T) {
	f := parseFunc(t, sieveRTL)
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L1"); n != 0 {
		t.Errorf("%d loads of n left in the prime loop:\n%s", n, listing(f))
	}
}

// TestLICMRegionRuleKeepsAliasedLoad: n stays in the loop whenever a
// store in the loop may write it.
func TestLICMRegionRuleKeepsAliasedLoad(t *testing.T) {
	for _, tc := range []struct{ name, store string }{
		// The loop writes n itself.
		{"stores n", `r0 := rv0
s32r r0, rv3`},
		// Through a pointer parameter, qsort2(int *a, ...)'s shape.
		{"pointer parameter", `r0 := rv0
s32r r0, ((rv0 << 2) + rv9)`},
		// At an index loaded from memory.
		{"loaded index", `l32r r0, ((rv0 << 2) + rv8)
rv1 := r0
r0 := 0
s8r r0, (rv1 + rv2)`},
		// At an index that holds a pointer.
		{"pointer index", `rv1 := (rv0 + rv8)
r0 := 0
s8r r0, (rv1 + rv2)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := parseFunc(t, `
rv9 := r2
rv0 := 0
rv2 := _flags
rv3 := _n
rv8 := _idx
L1:
`+tc.store+`
rv0 := (rv0 + 1)
l32r r0, rv3
rv4 := r0
r31 := (rv0 < rv4)
jumpTr L1
halt`)
			chk(LICM(f))
			hdr := f.FindLabel("L1")
			for n := hdr; n < len(f.Code); n++ {
				if i := f.Code[n]; i.Kind == rtl.KLoad && i.Addr.String() == "rv3" {
					return
				}
			}
			t.Errorf("load of n hoisted past a store that may write it:\n%s", listing(f))
		})
	}
}

// TestLICMKeepsLoadPastStoreAtUnknownIndex: a[kk] = i may write a[0]
// whatever kk holds, so a[0] stays in the loop.  The store's base
// "_a+rv8" once counted as a region of its own, and the load moved out.
func TestLICMKeepsLoadPastStoreAtUnknownIndex(t *testing.T) {
	f := parseFunc(t, `
l32r r0, _k
rv7 := r0
rv8 := (rv7 << 2)
rv0 := 0
rv1 := _a
rv5 := 0
L1:
r0 := rv0
s32r r0, (rv8 + rv1)
l32r r0, rv1
rv4 := r0
rv5 := (rv5 + rv4)
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L1"); n != 1 {
		t.Errorf("load of a[0] hoisted past a store to a[kk]:\n%s", listing(f))
	}
}

// --- load reuse -----------------------------------------------------------------

// swapRTL is bubblesort's inner loop as the expander leaves it: the
// swap path reloads a[j] and a[j+1] after the compare consumed them.
const swapRTL = `
rv1 := 0
rv38 := _a
L8:
l32r r0, ((rv1 << 2) + rv38)
rv42 := r0
rv46 := (rv1 + 1)
l32r r0, ((rv46 << 2) + rv38)
rv49 := r0
r31 := (rv42 > rv49)
jumpFr L11
rv50 := _a
` + "%s" + `
l32r r0, ((rv1 << 2) + rv50)
rv72 := r0
rv62 := (rv1 + 1)
l32r r0, ((rv62 << 2) + rv50)
rv65 := r0
r0 := rv65
s32r r0, ((rv1 << 2) + rv50)
r0 := rv72
s32r r0, ((rv62 << 2) + rv50)
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < r5)
jumpTr L8
halt`

// TestReuseLoadsOnSwapPath: the swap path reads the registers the
// compare's loads filled.
func TestReuseLoadsOnSwapPath(t *testing.T) {
	f := parseFunc(t, strings.Replace(swapRTL, "%s", "", 1))
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L8"); n != 2 {
		t.Errorf("%d loads in the loop, want the compare's 2:\n%s", n, listing(f))
	}
	text := listing(f)
	if !strings.Contains(text, "rv72 := rv42") || !strings.Contains(text, "rv65 := rv49") {
		t.Errorf("swap path does not reuse the compared values:\n%s", text)
	}
}

// TestReuseLoadsStopsAtAliasingStore: a store through a pointer between
// the compare and the swap may change a[j], so the reloads stay.
func TestReuseLoadsStopsAtAliasingStore(t *testing.T) {
	f := parseFunc(t, "rv9 := r2\n"+strings.Replace(swapRTL, "%s", "r0 := 0\ns32r r0, rv9", 1))
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L8"); n != 4 {
		t.Errorf("%d loads in the loop, want 4:\n%s", n, listing(f))
	}
}

// TestReuseLoadsLeavesSameBlockReload: within a block the access unit
// runs ahead, so a reload there stays.
func TestReuseLoadsLeavesSameBlockReload(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv1 := _e
L1:
l64f f0, rv1
fv0 := f0
l64f f0, rv1
fv1 := f0
f0 := ((fv0 + fv1) * 1f)
s64f f0, rv1
rv0 := (rv0 + 1)
r31 := (rv0 < 6)
jumpTr L1
halt`)
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L1"); n != 2 {
		t.Errorf("%d loads in the loop, want 2:\n%s", n, listing(f))
	}
}

// TestReuseLoadFromPreheader: a conditional load of n reads the register
// the preheader's load of n filled.
func TestReuseLoadFromPreheader(t *testing.T) {
	f := parseFunc(t, `
rv0 := 2
rv2 := _flags
rv3 := _n
l32r r0, rv3
rv5 := r0
L1:
l8r r0, (rv0 + rv2)
rv6 := r0
r31 := (rv6 != 0)
jumpFr L2
l32r r0, rv3
rv7 := r0
r0 := rv7
s8r r0, (rv0 + rv2)
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < rv5)
jumpTr L1
halt`)
	chk(LICM(f))
	if n := loadsInLoop(t, f, "L1"); n != 1 {
		t.Errorf("%d loads in the loop, want flags[i] only:\n%s", n, listing(f))
	}
	if !strings.Contains(listing(f), "rv7 := rv5") {
		t.Errorf("conditional load of n does not reuse the preheader's:\n%s", listing(f))
	}
}

// --- recurrences through conditional stores ------------------------------------

// carriedSwapRTL is the swap loop after load reuse: a[j+1] is loaded on
// every iteration and stored on the swap path only.
const carriedSwapRTL = `
rv1 := 0
rv38 := _a
L8:
` + "%s" + `
l32r r0, ((rv1 << 2) + rv38)
rv42 := r0
rv46 := (rv1 + 1)
l32r r0, ((rv46 << 2) + rv38)
rv49 := r0
r31 := (rv42 > rv49)
jumpFr L11
rv62 := (rv1 + 1)
r0 := rv49
s32r r0, ((rv1 << 2) + rv38)
r0 := rv42
s32r r0, ((rv62 << 2) + rv38)
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < r5)
jumpTr L8
halt`

// TestRecurrenceThroughConditionalStore: a[j+1]'s last value, loaded or
// swapped in, is the next iteration's a[j].
func TestRecurrenceThroughConditionalStore(t *testing.T) {
	f := parseFunc(t, strings.Replace(carriedSwapRTL, "%s", "", 1))
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("recurrence through the swap not carried:\n%s", listing(f))
	}
	if n := loadsInLoop(t, f, "L8"); n != 1 {
		t.Errorf("%d loads in the loop, want a[j+1] only:\n%s", n, listing(f))
	}
	if n := countKind(f, rtl.KLoad); n != 2 {
		t.Errorf("%d loads, want a[j+1] and one preload:\n%s", n, listing(f))
	}
	// The swap path's store of the old a[j] into a[j+1] must set the
	// register the next iteration's carry copy reads.
	var carried rtl.Reg
	for _, i := range f.Code {
		if i.Note == "carry recurrence value" {
			carried = i.Src.(rtl.RegX).Reg
		}
	}
	set := false
	for _, i := range f.Code {
		if i.Note == "recurrence value" && i.Dst == carried && i.Src.String() == "rv42" {
			set = true
		}
	}
	if !set {
		t.Errorf("swap store does not update the carried register %s:\n%s", carried, listing(f))
	}
}

// TestRecurrenceRefusesEarlierStore: a store to a[j] before the load of
// a[j] changes the value the carried register would stand for.
func TestRecurrenceRefusesEarlierStore(t *testing.T) {
	f := parseFunc(t, strings.Replace(carriedSwapRTL, "%s", "r0 := 7\ns32r r0, ((rv1 << 2) + rv38)", 1))
	if chk(Recurrences(f, 4)) {
		t.Errorf("recurrence carried past a store to the read location:\n%s", listing(f))
	}
}

// TestRecurrenceRefusesCharCarry: a char store truncates, so the stored
// register does not hold what the next iteration would load.
func TestRecurrenceRefusesCharCarry(t *testing.T) {
	f := parseFunc(t, `
rv0 := 1
rv1 := _x
L1:
l8r r0, ((rv0 - 1) + rv1)
rv2 := r0
rv3 := ((rv2 / 2) + 100)
r0 := rv3
s8r r0, (rv0 + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	if chk(Recurrences(f, 4)) {
		t.Errorf("char recurrence carried in a full-width register:\n%s", listing(f))
	}
}
