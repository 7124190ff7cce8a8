package opt

import (
	"slices"
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
// swapped in, is the next iteration's a[j].  The swap stores the old
// carry back into a[j+1], so the carry stays where the swap leaves it:
// no copy at the top of the loop, and one copy of the loaded a[j+1] on
// the edge that does not swap.
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
	if n := strings.Count(listing(f), ":= _a"); n != 1 {
		t.Errorf("the preload materializes _a again instead of reading rv38:\n%s", listing(f))
	}
	keptCarryShape(t, f, "rv49")
}

// TestRecurrenceKeepsCarryThroughCopy: the swap stores the old carry
// through the copy t.
func TestRecurrenceKeepsCarryThroughCopy(t *testing.T) {
	src := strings.Replace(carriedSwapRTL, "%s", "", 1)
	src = strings.Replace(src, "rv62 := (rv1 + 1)\n", "rv62 := (rv1 + 1)\nrv70 := rv42\n", 1)
	src = strings.Replace(src, "r0 := rv42\n", "r0 := rv70\n", 1)
	f := parseFunc(t, src)
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("recurrence through the swap not carried:\n%s", listing(f))
	}
	keptCarryShape(t, f, "rv49")
}

// keptCarryShape checks the kept carry of the swap loop at L8, whose
// anchor dequeues into y: no shifting copy, the swap's store of a[j+1]
// writes the carry, and the one copy "carry := y" sits just before the
// latch L11, reached by the compare's jump on the path that does not
// swap, which jumps over it.
func keptCarryShape(t *testing.T, f *rtl.Func, y string) {
	t.Helper()
	var carry *rtl.Instr
	for _, i := range f.Code {
		switch i.Note {
		case "carry recurrence value":
			t.Errorf("shifting copy %s at the top of the loop:\n%s", i, listing(f))
		case "carry recurrence value, not stored":
			if carry != nil {
				t.Errorf("two carry copies:\n%s", listing(f))
			}
			carry = i
		}
	}
	if carry == nil || carry.Src.String() != y {
		t.Fatalf("no copy of %s into the carry:\n%s", y, listing(f))
	}
	c := carry.Dst.String()
	at := slices.Index(f.Code, carry)
	split, latch := f.Code[at-1], f.Code[at+1]
	if split.Kind != rtl.KLabel || latch.Kind != rtl.KLabel || latch.Name != "L11" || f.Code[at-2].String() != "jump L11" {
		t.Errorf("carry copy not alone on a split edge into L11:\n%s", listing(f))
	}
	jumps := 0
	for _, i := range f.Code {
		if i.Kind == rtl.KCondJump && i.Target == split.Name {
			jumps++
		}
	}
	if jumps != 1 {
		t.Errorf("%d branches take the copy, want the compare's:\n%s", jumps, listing(f))
	}
	stores := 0
	for k, i := range f.Code {
		if i.Kind == rtl.KStore && f.Code[k-1].String() == "r0 := "+c {
			stores++
		}
	}
	if stores != 1 {
		t.Errorf("%d stores of the carry %s, want the swap's store into a[j+1]:\n%s", stores, c, listing(f))
	}
}

// keptCarryRefusals are loops where the carry must change at the top of
// each iteration: a path can leave L holding something other than the
// old carry, the storing and non-storing paths meet before the latch,
// or the carry spans more than one iteration.  A char loop carries
// nothing.  Each want is the listing the shifting-copy scheme gives.
var keptCarryRefusals = []struct{ name, src, want string }{
	{"swap stores t + 1", swapIntoRTL("r0 := (rv42 + 1)\ns32r r0, ((rv62 << 2) + _a)"), `
  1.     rv1 := 0
  2.     rv64 := _a
  3.     l32r r0, ((rv1 << 2) + rv64)                -- preload recurrence value
  4.     rv49 := r0                                  -- initial recurrence value
  5. L8:
  6.     rv63 := rv49                                -- carry recurrence value
  7.     rv42 := rv63                                -- recurrence register
  8.     rv46 := (rv1 + 1)
  9.     l32r r0, ((rv46 << 2) + _a)
 10.     rv49 := r0
 11.     r31 := (rv42 > rv49)
 12.     jumpFr L11
 13.     rv62 := (rv1 + 1)
 14.     r0 := rv49
 15.     s32r r0, ((rv1 << 2) + _a)
 16.     rv49 := (rv42 + 1)                          -- recurrence value
 17.     r0 := rv49
 18.     s32r r0, ((rv62 << 2) + _a)
 19. L11:
 20.     rv1 := (rv1 + 1)
 21.     r31 := (rv1 < r5)
 22.     jumpTr L8
 23.     halt
`},
	{"second store after the old carry", swapIntoRTL("r0 := rv42\ns32r r0, ((rv62 << 2) + _a)\nr0 := rv49\ns32r r0, ((rv62 << 2) + _a)"), `
  1.     rv1 := 0
  2.     rv65 := _a
  3.     l32r r0, ((rv1 << 2) + rv65)                -- preload recurrence value
  4.     rv63 := r0                                  -- initial recurrence value
  5. L8:
  6.     rv64 := rv63                                -- carry recurrence value
  7.     rv42 := rv64                                -- recurrence register
  8.     rv46 := (rv1 + 1)
  9.     l32r r0, ((rv46 << 2) + _a)
 10.     rv63 := r0                                  -- recurrence value
 11.     rv49 := rv63
 12.     r31 := (rv42 > rv49)
 13.     jumpFr L11
 14.     rv62 := (rv1 + 1)
 15.     r0 := rv49
 16.     s32r r0, ((rv1 << 2) + _a)
 17.     rv63 := rv42                                -- recurrence value
 18.     r0 := rv63
 19.     s32r r0, ((rv62 << 2) + _a)
 20.     rv63 := rv49                                -- recurrence value
 21.     r0 := rv63
 22.     s32r r0, ((rv62 << 2) + _a)
 23. L11:
 24.     rv1 := (rv1 + 1)
 25.     r31 := (rv1 < r5)
 26.     jumpTr L8
 27.     halt
`},
	{"paths join before the latch", strings.Replace(swapIntoRTL("r0 := rv42\ns32r r0, ((rv62 << 2) + _a)"),
		"L11:\n", "L11:\nrv9 := (rv9 + rv49)\nL12:\n", 1), `
  1.     rv1 := 0
  2.     rv65 := _a
  3.     l32r r0, ((rv1 << 2) + rv65)                -- preload recurrence value
  4.     rv63 := r0                                  -- initial recurrence value
  5. L8:
  6.     rv64 := rv63                                -- carry recurrence value
  7.     rv42 := rv64                                -- recurrence register
  8.     rv46 := (rv1 + 1)
  9.     l32r r0, ((rv46 << 2) + _a)
 10.     rv63 := r0                                  -- recurrence value
 11.     rv49 := rv63
 12.     r31 := (rv42 > rv49)
 13.     jumpFr L11
 14.     rv62 := (rv1 + 1)
 15.     r0 := rv49
 16.     s32r r0, ((rv1 << 2) + _a)
 17.     rv63 := rv42                                -- recurrence value
 18.     r0 := rv63
 19.     s32r r0, ((rv62 << 2) + _a)
 20. L11:
 21.     rv9 := (rv9 + rv49)
 22. L12:
 23.     rv1 := (rv1 + 1)
 24.     r31 := (rv1 < r5)
 25.     jumpTr L8
 26.     halt
`},
	{"degree 2", `
rv1 := 0
rv9 := 0
L8:
l32r r0, ((rv1 << 2) + _a)
rv42 := r0
rv9 := (rv9 + rv42)
rv46 := (rv1 + 1)
l32r r0, ((rv46 << 2) + _a)
rv49 := r0
rv50 := (rv1 + 2)
l32r r0, ((rv50 << 2) + _a)
rv51 := r0
r31 := (rv49 > rv51)
jumpFr L11
rv52 := (rv1 + 2)
r0 := rv49
s32r r0, ((rv52 << 2) + _a)
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < r5)
jumpTr L8
puti rv9
halt`, `
  1.     rv1 := 0
  2.     rv9 := 0
  3.     rv55 := _a
  4.     l32r r0, (((rv1 << 2) + rv55) + 4)          -- preload recurrence value
  5.     rv51 := r0                                  -- initial recurrence value
  6.     rv56 := _a
  7.     l32r r0, ((rv1 << 2) + rv56)                -- preload recurrence value
  8.     rv53 := r0                                  -- initial recurrence value
  9. L8:
 10.     rv54 := rv53                                -- carry recurrence value
 11.     rv53 := rv51                                -- carry recurrence value
 12.     rv42 := rv54                                -- recurrence register
 13.     rv9 := (rv9 + rv42)
 14.     rv46 := (rv1 + 1)
 15.     rv49 := rv53                                -- recurrence register
 16.     rv50 := (rv1 + 2)
 17.     l32r r0, ((rv50 << 2) + _a)
 18.     rv51 := r0
 19.     r31 := (rv49 > rv51)
 20.     jumpFr L11
 21.     rv52 := (rv1 + 2)
 22.     rv51 := rv49                                -- recurrence value
 23.     r0 := rv51
 24.     s32r r0, ((rv52 << 2) + _a)
 25. L11:
 26.     rv1 := (rv1 + 1)
 27.     r31 := (rv1 < r5)
 28.     jumpTr L8
 29.     puti rv9
 30.     halt
`},
	{"char array", `
rv1 := 0
L8:
l8r r0, (rv1 + _a)
rv42 := r0
rv46 := (rv1 + 1)
l8r r0, (rv46 + _a)
rv49 := r0
r31 := (rv42 > rv49)
jumpFr L11
rv62 := (rv1 + 1)
r0 := rv49
s8r r0, (rv1 + _a)
r0 := rv42
s8r r0, (rv62 + _a)
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < r5)
jumpTr L8
halt`, `
  1.     rv1 := 0
  2. L8:
  3.     l8r r0, (rv1 + _a)
  4.     rv42 := r0
  5.     rv46 := (rv1 + 1)
  6.     l8r r0, (rv46 + _a)
  7.     rv49 := r0
  8.     r31 := (rv42 > rv49)
  9.     jumpFr L11
 10.     rv62 := (rv1 + 1)
 11.     r0 := rv49
 12.     s8r r0, (rv1 + _a)
 13.     r0 := rv42
 14.     s8r r0, (rv62 + _a)
 15. L11:
 16.     rv1 := (rv1 + 1)
 17.     r31 := (rv1 < r5)
 18.     jumpTr L8
 19.     halt
`},
}

// swapIntoRTL is the swap loop addressed straight off _a, with store as
// its code for a[j+1].
func swapIntoRTL(store string) string {
	return `
rv1 := 0
L8:
l32r r0, ((rv1 << 2) + _a)
rv42 := r0
rv46 := (rv1 + 1)
l32r r0, ((rv46 << 2) + _a)
rv49 := r0
r31 := (rv42 > rv49)
jumpFr L11
rv62 := (rv1 + 1)
r0 := rv49
s32r r0, ((rv1 << 2) + _a)
` + store + `
L11:
rv1 := (rv1 + 1)
r31 := (rv1 < r5)
jumpTr L8
halt`
}

// TestRecurrenceKeptCarryRefusals: each refusal compiles byte for byte
// to its want.
func TestRecurrenceKeptCarryRefusals(t *testing.T) {
	for _, tc := range keptCarryRefusals {
		f := parseFunc(t, tc.src)
		chk(Recurrences(f, 4))
		want := ".func t frame=0" + tc.want + ".end\n"
		if got := listing(f); got != want {
			t.Errorf("%s: listing changed:\n%s\nwant:\n%s", tc.name, got, want)
		}
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
