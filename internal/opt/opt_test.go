package opt

import (
	"strconv"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

func parseFunc(t *testing.T, body string) *rtl.Func {
	t.Helper()
	p, err := rtl.Parse(".func t\n" + body + "\n.end\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.Func("t")
}

func listing(f *rtl.Func) string { return f.Listing() }

func countKind(f *rtl.Func, k rtl.Kind) int {
	n := 0
	for _, i := range f.Code {
		if i.Kind == k {
			n++
		}
	}
	return n
}

// --- Fold ------------------------------------------------------------------

func TestFoldSimplifies(t *testing.T) {
	f := parseFunc(t, `
rv0 := (2 + 3)
rv1 := (rv0 + 0)
halt`)
	if !Fold(f) {
		t.Fatal("Fold reported no change")
	}
	if s := f.Code[0].Src.String(); s != "5" {
		t.Errorf("folded to %s", s)
	}
	if s := f.Code[1].Src.String(); s != "rv0" {
		t.Errorf("identity not folded: %s", s)
	}
}

func TestFoldKeepsCompareTop(t *testing.T) {
	f := parseFunc(t, `
r31 := (2 < r5)
jumpTr L1
L1:
halt`)
	Fold(f)
	if !f.Code[0].IsCompare() {
		t.Errorf("compare destroyed: %s", f.Code[0])
	}
}

func TestFoldConstantBranch(t *testing.T) {
	f := parseFunc(t, `
r31 := (2 < 3)
jumpTr L1
rv0 := 99
L1:
halt`)
	Fold(f)
	if countKind(f, rtl.KCondJump) != 0 {
		t.Errorf("constant branch survived:\n%s", listing(f))
	}
	if countKind(f, rtl.KJump) != 1 {
		t.Errorf("taken branch should become jump:\n%s", listing(f))
	}
	// Not-taken case.
	f2 := parseFunc(t, `
r31 := (5 < 3)
jumpTr L1
rv0 := 99
L1:
halt`)
	Fold(f2)
	if countKind(f2, rtl.KCondJump) != 0 || countKind(f2, rtl.KJump) != 0 {
		t.Errorf("not-taken branch should vanish:\n%s", listing(f2))
	}
}

// --- CopyProp / DeadCode -----------------------------------------------------

func TestCopyPropLocal(t *testing.T) {
	f := parseFunc(t, `
rv0 := 5
rv1 := rv0
rv2 := (rv1 + rv0)
halt`)
	chk(CopyProp(f))
	Fold(f)
	if s := f.Code[2].Src.String(); s != "10" {
		t.Errorf("propagation failed: %s\n%s", s, listing(f))
	}
}

func TestCopyPropKillsOnRedefine(t *testing.T) {
	f := parseFunc(t, `
r10 := r11
r11 := 7
r12 := r10
halt`)
	chk(CopyProp(f))
	if s := f.Code[2].Src.String(); s == "7" || s == "r11" {
		t.Errorf("stale copy propagated: %s", s)
	}
}

func TestCopyPropNotThroughFIFO(t *testing.T) {
	f := parseFunc(t, `
rv0 := r0
rv1 := rv0
halt`)
	chk(CopyProp(f))
	if s := f.Code[1].Src.String(); s == "r0" {
		t.Errorf("FIFO read duplicated: %s\n%s", s, listing(f))
	}
}

func TestDeadCodeRemoves(t *testing.T) {
	f := parseFunc(t, `
rv0 := 5
rv1 := 6
r2 := rv1
ret`)
	chk(DeadCode(f))
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && i.Dst.IsVirtual() && i.Dst.N == rtl.VirtualBase {
			t.Errorf("dead assign survived:\n%s", listing(f))
		}
	}
}

func TestDeadCodeKeepsSideEffects(t *testing.T) {
	f := parseFunc(t, `
r31 := (r5 < r6)
l32r r0, r5
f0 := f10
puti r5
halt`)
	n := len(f.Code)
	chk(DeadCode(f))
	if len(f.Code) != n {
		t.Errorf("side-effecting instruction removed:\n%s", listing(f))
	}
}

// --- CSE ---------------------------------------------------------------------

func TestCSE(t *testing.T) {
	f := parseFunc(t, `
rv0 := ((r5 << 3) + r6)
rv1 := ((r5 << 3) + r6)
r2 := (rv0 + rv1)
ret`)
	if !chk(CSE(f)) {
		t.Fatal("CSE found nothing")
	}
	if s := f.Code[1].Src.String(); s != "rv0" {
		t.Errorf("second compute = %s", s)
	}
}

func TestCSEKillsOnRedefine(t *testing.T) {
	f := parseFunc(t, `
rv0 := (r5 + r6)
r5 := 1
rv1 := (r5 + r6)
r2 := (rv0 + rv1)
ret`)
	chk(CSE(f))
	if s := f.Code[2].Src.String(); s == "rv0" {
		t.Errorf("CSE across redefinition:\n%s", listing(f))
	}
}

func TestCSESkipsFIFO(t *testing.T) {
	f := parseFunc(t, `
rv0 := (r0 + 1)
rv1 := (r0 + 1)
r2 := (rv0 + rv1)
ret`)
	chk(CSE(f))
	if s := f.Code[1].Src.String(); s == "rv0" {
		t.Errorf("FIFO expr CSEd:\n%s", listing(f))
	}
}

// --- LICM --------------------------------------------------------------------

func TestLICMHoistsInvariant(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
rv1 := _x
rv2 := (rv1 + 8)
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	if !chk(LICM(f)) {
		t.Fatalf("LICM hoisted nothing:\n%s", listing(f))
	}
	// Both rv1 and rv2 should now precede the loop header label.
	hdr := f.FindLabel("L1")
	seenSym := false
	for n := 0; n < hdr; n++ {
		if i := f.Code[n]; i.Kind == rtl.KAssign {
			if _, ok := i.Src.(rtl.Sym); ok {
				seenSym = true
			}
		}
	}
	if !seenSym {
		t.Errorf("symbol materialization not hoisted:\n%s", listing(f))
	}
}

func TestLICMKeepsVariant(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
rv1 := (rv0 << 3)
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	hdr := f.FindLabel("L1")
	for n := hdr + 1; n < len(f.Code); n++ {
		if i := f.Code[n]; i.Kind == rtl.KAssign && strings.Contains(i.Src.String(), "<<") {
			return // still in loop: good
		}
	}
	t.Errorf("variant expression hoisted:\n%s", listing(f))
}

// TestLICMKeepsDefOfLiveInValue: an invariant assignment whose
// destination is live into the loop and read before the assignment
// must stay, or the first iteration would read the hoisted value
// instead of the pre-loop one.  This is the check LICM needs liveness
// for.
func TestLICMKeepsDefOfLiveInValue(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv3 := 5
L1:
rv4 := (rv3 + 1)
rv3 := 7
rv0 := (rv0 + rv4)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	chk(LICM(f))
	hdr := f.FindLabel("L1")
	for n := hdr + 1; n < len(f.Code); n++ {
		if i := f.Code[n]; i.Kind == rtl.KAssign && i.Src.String() == "7" {
			return // still in loop: good
		}
	}
	t.Errorf("definition of a live-in register hoisted:\n%s", listing(f))
}

func TestLICMSkipsDivision(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
L1:
rv1 := (r5 / r6)
rv0 := (rv0 + 1)
r31 := (rv0 < 10)
jumpTr L1
halt`)
	chk(LICM(f))
	hdr := f.FindLabel("L1")
	for n := 0; n < hdr; n++ {
		if i := f.Code[n]; i.Kind == rtl.KAssign && strings.Contains(i.Src.String(), "/") {
			t.Errorf("trapping division hoisted:\n%s", listing(f))
		}
	}
}

// --- CleanBranches -------------------------------------------------------------

func TestCleanBranchesJumpToNext(t *testing.T) {
	f := parseFunc(t, `
jump L1
L1:
halt`)
	CleanBranches(f)
	if countKind(f, rtl.KJump) != 0 {
		t.Errorf("jump-to-next survived:\n%s", listing(f))
	}
}

func TestCleanBranchesThreading(t *testing.T) {
	f := parseFunc(t, `
r31 := (r5 < r6)
jumpTr L1
halt
L1:
jump L2
rv0 := 1
L2:
halt`)
	CleanBranches(f)
	for _, i := range f.Code {
		if i.Kind == rtl.KCondJump && i.Target != "L2" {
			t.Errorf("jump not threaded: %s\n%s", i, listing(f))
		}
	}
}

func TestCleanBranchesUnreachable(t *testing.T) {
	f := parseFunc(t, `
halt
rv0 := 1
rv1 := 2
L1:
halt`)
	CleanBranches(f)
	if len(f.Code) > 2 {
		t.Errorf("unreachable code survived:\n%s", listing(f))
	}
}

// --- Combine --------------------------------------------------------------------

func TestCombineDualOp(t *testing.T) {
	f := parseFunc(t, `
rv0 := (r5 << 3)
rv1 := (rv0 + r6)
r2 := rv1
ret`)
	if !chk(Combine(f)) {
		t.Fatalf("Combine did nothing:\n%s", listing(f))
	}
	found := false
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && i.Src.String() == "((r5 << 3) + r6)" {
			found = true
		}
	}
	if !found {
		t.Errorf("dual-op not formed:\n%s", listing(f))
	}
}

func TestCombineRespectsTwoOpLimit(t *testing.T) {
	f := parseFunc(t, `
rv0 := ((r5 << 3) + r6)
rv1 := (rv0 + r7)
r2 := rv1
ret`)
	chk(Combine(f))
	for _, i := range f.Code {
		if i.Kind != rtl.KAssign {
			continue
		}
		if rtl.ExprSize(i.Src) > 2 {
			t.Errorf("illegal instruction formed: %s", i)
		}
	}
}

func TestCombineMultiUseBlocked(t *testing.T) {
	f := parseFunc(t, `
rv0 := (r5 + r6)
rv1 := (rv0 + 1)
rv2 := (rv0 + 2)
r2 := (rv1 + rv2)
ret`)
	before := len(f.Code)
	chk(Combine(f))
	// rv0 has two uses: it must survive.
	if len(f.Code) < before-1 {
		t.Errorf("multi-use producer merged:\n%s", listing(f))
	}
	stillThere := false
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && i.Src.String() == "(r5 + r6)" {
			stillThere = true
		}
	}
	if !stillThere {
		t.Errorf("producer deleted despite two uses:\n%s", listing(f))
	}
}

func TestCombineFIFOForward(t *testing.T) {
	f := parseFunc(t, `
l64f f0, r5
fv0 := f0
fv1 := (fv0 * f10)
f0 := fv1
s64f f0, r6
ret`)
	chk(Combine(f))
	// fv0 := f0 should fold into the multiply.
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && strings.Contains(i.Src.String(), "(f0 * f10)") {
			return
		}
	}
	t.Errorf("FIFO read not forwarded:\n%s", listing(f))
}

func TestCombineFIFOOrderPreserved(t *testing.T) {
	// Two dequeues used in source order: both may forward, yielding
	// (f0 - f0), where the first read must be the older entry.
	f := parseFunc(t, `
l64f f0, r5
l64f f0, r6
fv0 := f0
fv1 := f0
fv2 := (fv0 - fv1)
f0 := fv2
s64f f0, r7
ret`)
	chk(Combine(f))
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && strings.Contains(i.Src.String(), "(f0 - f0)") {
			return
		}
	}
	t.Errorf("double forward failed:\n%s", listing(f))
}

func TestCombineFIFOSwappedOrderBlocked(t *testing.T) {
	// The dequeues are used in REVERSED order: merging both would
	// swap the queue entries, so at most one may forward.
	f := parseFunc(t, `
l64f f0, r5
l64f f0, r6
fv0 := f0
fv1 := f0
fv2 := (fv1 - fv0)
f0 := fv2
s64f f0, r7
ret`)
	chk(Combine(f))
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && strings.Contains(i.Src.String(), "(f0 - f0)") {
			t.Errorf("queue order violated:\n%s", listing(f))
		}
	}
}

// --- Legalize --------------------------------------------------------------------

func TestLegalizeSplitsBigExprs(t *testing.T) {
	f := parseFunc(t, `
rv0 := (((r5 + r6) + r7) + r8)
ret`)
	if err := Legalize(f); err != nil {
		t.Fatal(err)
	}
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign && rtl.ExprSize(i.Src) > 2 {
			t.Errorf("oversized instruction: %s", i)
		}
	}
}

func TestLegalizeExtractsNestedSym(t *testing.T) {
	f := parseFunc(t, `
rv0 := (_x + 8)
ret`)
	// _x + 8 folds into _x+8 (a single Sym), which is legal as a whole
	// source.
	Fold(f)
	if err := Legalize(f); err != nil {
		t.Fatal(err)
	}
	for _, i := range f.Code {
		if i.Kind != rtl.KAssign {
			continue
		}
		if b, ok := i.Src.(rtl.Bin); ok {
			bad := false
			rtl.WalkExpr(b, func(e rtl.Expr) {
				if _, isSym := e.(rtl.Sym); isSym {
					bad = true
				}
			})
			if bad {
				t.Errorf("nested symbol survives: %s", i)
			}
		}
	}
}

func TestLegalizeRejectsMem(t *testing.T) {
	f := parseFunc(t, `
rv0 := M4r[(r5 + 4)]
ret`)
	if err := Legalize(f); err == nil {
		t.Fatal("memory operand accepted for WM")
	}
}

// --- RegAlloc --------------------------------------------------------------------

func TestRegAllocAssignsAll(t *testing.T) {
	f := parseFunc(t, `
rv0 := 1
rv1 := 2
rv2 := (rv0 + rv1)
r2 := rv2
ret`)
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
	for _, i := range f.Code {
		if d, ok := i.Def(); ok && d.IsVirtual() {
			t.Errorf("virtual survived: %s", i)
		}
		for _, u := range i.Uses(nil) {
			if u.IsVirtual() {
				t.Errorf("virtual use survived: %s", i)
			}
		}
	}
}

func TestRegAllocReusesRegisters(t *testing.T) {
	// 100 sequential short-lived temporaries must fit the pool.
	var sb strings.Builder
	for k := 0; k < 100; k++ {
		sb.WriteString("rv" + strconv.Itoa(k) + " := " + strconv.Itoa(k) + "\n")
		sb.WriteString("r2 := rv" + strconv.Itoa(k) + "\n")
	}
	sb.WriteString("ret")
	f := parseFunc(t, sb.String())
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
}

func TestRegAllocSpillsAcrossCall(t *testing.T) {
	f := parseFunc(t, `
rv0 := 42
call foo
r2 := rv0
ret`)
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
	if f.Frame < 8 {
		t.Errorf("frame not grown: %d", f.Frame)
	}
	// The store comes right before the call and the load right after
	// it, both on the secondary FIFO.
	for n, i := range f.Code {
		if i.Kind != rtl.KCall {
			continue
		}
		if n == 0 || n+1 >= len(f.Code) {
			t.Fatalf("call at the edge of the code:\n%s", listing(f))
		}
		before, after := f.Code[n-1], f.Code[n+1]
		if before.Kind != rtl.KStore || before.FIFO.N != rtl.FIFO1 {
			t.Errorf("before the call: %s, want a store on FIFO1\n%s", before, listing(f))
		}
		if after.Kind != rtl.KLoad || after.FIFO.N != rtl.FIFO1 {
			t.Errorf("after the call: %s, want a load on FIFO1\n%s", after, listing(f))
		}
	}
}

// TestRegAllocSavesAroundCall: a value live across a call and used in
// a later call-free loop stays in a register there (qsort2's scan
// loops): it is saved before the call and reloaded after it, and the
// loop loads nothing from the stack.
func TestRegAllocSavesAroundCall(t *testing.T) {
	f := parseFunc(t, `
rv0 := r2
rv1 := r3
call foo
L1:
l32r r0, ((rv1 << 2) + rv0)
rv1 := (rv1 + 1)
r31 := (r0 < 5)
jumpTr L1
r2 := rv1
ret`)
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
	inLoop := false
	for _, i := range f.Code {
		switch {
		case i.Kind == rtl.KLabel && i.Name == "L1":
			inLoop = true
		case i.Kind == rtl.KCondJump:
			inLoop = false
		case inLoop && i.Kind == rtl.KLoad && i.FIFO.N == rtl.FIFO1:
			t.Errorf("stack load inside the call-free loop: %s\n%s", i, listing(f))
		}
	}
	saves, reloads := 0, 0
	for _, i := range f.Code {
		switch i.Note {
		case "save across call":
			saves++
		case "reload after call":
			reloads++
		}
	}
	if saves != 2 || reloads != 2 {
		t.Errorf("%d saves and %d reloads, want 2 each:\n%s", saves, reloads, listing(f))
	}
}

// TestRegAllocSpillsRarelyUsedValue: a value that crosses many calls
// but is used once keeps the spill-everywhere form (dhrystone): one
// store after its def and one load before its use beat a store and a
// load around each call.
func TestRegAllocSpillsRarelyUsedValue(t *testing.T) {
	f := parseFunc(t, `
rv0 := r2
call foo
call foo
call foo
r2 := rv0
ret`)
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
	if st, ld := countKind(f, rtl.KStore), countKind(f, rtl.KLoad); st != 1 || ld != 1 {
		t.Errorf("%d stores and %d loads, want 1 each:\n%s", st, ld, listing(f))
	}
	if strings.Contains(listing(f), "save across call") {
		t.Errorf("value saved around calls:\n%s", listing(f))
	}
}

// TestRegAllocRejectsFrameWithoutPrologue: a function that claims a
// frame but has no r29 := (r29 - frame) to grow fails allocation
// rather than getting a slot beyond its allocated frame.
func TestRegAllocRejectsFrameWithoutPrologue(t *testing.T) {
	f := parseFunc(t, `
rv0 := 42
call foo
r2 := rv0
ret`)
	f.Frame = 16
	err := RegAlloc(f)
	if err == nil || !strings.Contains(err.Error(), "prologue") {
		t.Errorf("RegAlloc = %v, want a missing-prologue error\n%s", err, listing(f))
	}
}

func TestRegAllocHighPressureSpills(t *testing.T) {
	// More simultaneously-live values than registers.
	var sb strings.Builder
	n := 40
	for k := 0; k < n; k++ {
		sb.WriteString("rv" + strconv.Itoa(k) + " := " + strconv.Itoa(k) + "\n")
	}
	sb.WriteString("r2 := rv0\n")
	for k := 1; k < n; k++ {
		sb.WriteString("r2 := (r2 + rv" + strconv.Itoa(k) + ")\n")
	}
	sb.WriteString("ret")
	f := parseFunc(t, sb.String())
	if err := RegAlloc(f); err != nil {
		t.Fatal(err)
	}
	for _, i := range f.Code {
		if d, ok := i.Def(); ok && d.IsVirtual() {
			t.Fatalf("virtual survived after spill: %s", i)
		}
	}
}

// --- Recurrences ------------------------------------------------------------------

// livermoreRTL is the naive shape of the 5th Livermore loop: x[i] =
// z[i] * (y[i] - x[i-1]), with addresses hoisted (rv1=_x, rv2=_z,
// rv3=_y) and i in rv0.
const livermoreRTL = `
rv0 := 2
rv1 := _x
rv2 := _z
rv3 := _y
LP:
L1:
l64f f0, ((rv0 << 3) + rv2)
fv0 := f0
l64f f0, ((rv0 << 3) + rv3)
fv1 := f0
rv4 := ((rv0 - 1) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
fv3 := ((fv1 - fv2) * fv0)
f0 := fv3
s64f f0, ((rv0 << 3) + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < r5)
jumpTr L1
halt`

func TestRecurrenceDetection(t *testing.T) {
	f := parseFunc(t, livermoreRTL)
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("recurrence not detected:\n%s", listing(f))
	}
	// One load must be gone: x[i-1].
	if n := countKind(f, rtl.KLoad); n != 3 { // 2 in loop + 1 preload
		t.Errorf("loads = %d, want 3 (two in loop + one preload):\n%s", n, listing(f))
	}
	// A carry copy must exist after the loop header.
	hdr := f.FindLabel("L1")
	carryFound := false
	for n := hdr + 1; n < hdr+3 && n < len(f.Code); n++ {
		i := f.Code[n]
		if i.Kind == rtl.KAssign {
			if _, isReg := i.Src.(rtl.RegX); isReg && i.Dst.Class == rtl.Float {
				carryFound = true
			}
		}
	}
	if !carryFound {
		t.Errorf("carry copy missing at loop top:\n%s", listing(f))
	}
}

func TestRecurrenceDegreeTwo(t *testing.T) {
	// x[i] = x[i-2] + 1.0
	f := parseFunc(t, `
rv0 := 2
rv1 := _x
fv9 := 1f
LP:
L1:
rv4 := ((rv0 - 2) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
fv3 := (fv2 + fv9)
f0 := fv3
s64f f0, ((rv0 << 3) + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < r5)
jumpTr L1
halt`)
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("degree-2 recurrence not detected:\n%s", listing(f))
	}
	// Two preloads, no loads left in loop.
	if n := countKind(f, rtl.KLoad); n != 2 {
		t.Errorf("loads = %d, want 2 preloads:\n%s", n, listing(f))
	}
}

func TestRecurrenceRespectsMaxDegree(t *testing.T) {
	f := parseFunc(t, `
rv0 := 9
rv1 := _x
LP:
L1:
rv4 := ((rv0 - 9) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
f0 := fv2
s64f f0, ((rv0 << 3) + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < r5)
jumpTr L1
halt`)
	if chk(Recurrences(f, 4)) {
		t.Errorf("degree-9 recurrence transformed despite maxDegree=4:\n%s", listing(f))
	}
}

func TestNoRecurrenceOnDisjointArrays(t *testing.T) {
	// y[i] = x[i]: different partitions, no recurrence.
	f := parseFunc(t, `
rv0 := 0
rv1 := _x
rv2 := _y
LP:
L1:
l64f f0, ((rv0 << 3) + rv1)
fv0 := f0
f0 := fv0
s64f f0, ((rv0 << 3) + rv2)
rv0 := (rv0 + 1)
r31 := (rv0 < r5)
jumpTr L1
halt`)
	if chk(Recurrences(f, 4)) {
		t.Errorf("phantom recurrence found:\n%s", listing(f))
	}
}

func TestNoRecurrenceForwardRead(t *testing.T) {
	// x[i] = x[i+1]: the read is ahead of the write, not a recurrence.
	f := parseFunc(t, `
rv0 := 0
rv1 := _x
LP:
L1:
rv4 := ((rv0 + 1) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
f0 := fv2
s64f f0, ((rv0 << 3) + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < r5)
jumpTr L1
halt`)
	if chk(Recurrences(f, 4)) {
		t.Errorf("anti-dependence treated as recurrence:\n%s", listing(f))
	}
}

// --- Streams --------------------------------------------------------------------

const copyLoopRTL = `
rv0 := 0
rv1 := _x
rv2 := _y
LP:
L1:
l64f f0, ((rv0 << 3) + rv1)
fv0 := f0
f0 := fv0
s64f f0, ((rv0 << 3) + rv2)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`

func TestStreamCopyLoop(t *testing.T) {
	f := parseFunc(t, copyLoopRTL)
	if !chk(Streams(f, 4)) {
		t.Fatalf("copy loop not streamed:\n%s", listing(f))
	}
	if countKind(f, rtl.KStreamIn) != 1 || countKind(f, rtl.KStreamOut) != 1 {
		t.Errorf("stream instructions missing:\n%s", listing(f))
	}
	if countKind(f, rtl.KLoad) != 0 || countKind(f, rtl.KStore) != 0 {
		t.Errorf("scalar accesses survived:\n%s", listing(f))
	}
	if countKind(f, rtl.KJumpNotDone) != 1 {
		t.Errorf("loop test not replaced:\n%s", listing(f))
	}
	if countKind(f, rtl.KCondJump) != 0 {
		t.Errorf("old conditional jump survived:\n%s", listing(f))
	}
}

func TestStreamRefusesMemoryRecurrence(t *testing.T) {
	// x[i] = x[i-1] without recurrence optimization: paper step 2a says
	// do not stream.
	f := parseFunc(t, `
rv0 := 2
rv1 := _x
LP:
L1:
rv4 := ((rv0 - 1) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
f0 := fv2
s64f f0, ((rv0 << 3) + rv1)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	chk(Streams(f, 4))
	if countKind(f, rtl.KStreamIn) != 0 || countKind(f, rtl.KStreamOut) != 0 {
		t.Errorf("memory recurrence streamed:\n%s", listing(f))
	}
}

func TestStreamMinTrip(t *testing.T) {
	f := parseFunc(t, strings.Replace(copyLoopRTL, "(rv0 < 100)", "(rv0 < 3)", 1))
	chk(Streams(f, 4))
	if countKind(f, rtl.KStreamIn) != 0 {
		t.Errorf("three-iteration loop streamed (paper step 1):\n%s", listing(f))
	}
	f2 := parseFunc(t, strings.Replace(copyLoopRTL, "(rv0 < 100)", "(rv0 < 3)", 1))
	chk(Streams(f2, 1))
	if countKind(f2, rtl.KStreamIn) != 1 {
		t.Errorf("minTrip=1 should stream:\n%s", listing(f2))
	}
}

func TestStreamRuntimeCount(t *testing.T) {
	f := parseFunc(t, strings.Replace(copyLoopRTL, "(rv0 < 100)", "(rv0 < r5)", 1))
	if !chk(Streams(f, 4)) {
		t.Fatalf("runtime-count loop not streamed:\n%s", listing(f))
	}
	// The stream count must be computed from r5.
	found := false
	for _, i := range f.Code {
		if i.Kind == rtl.KStreamIn {
			if _, isImm := i.Count.(rtl.Imm); !isImm {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("stream count not runtime:\n%s", listing(f))
	}
}

func TestStreamSkipsCallLoops(t *testing.T) {
	f := parseFunc(t, strings.Replace(copyLoopRTL, "fv0 := f0", "fv0 := f0\ncall foo", 1))
	chk(Streams(f, 4))
	if countKind(f, rtl.KStreamIn) != 0 {
		t.Errorf("loop with call streamed:\n%s", listing(f))
	}
}

func TestStreamConditionalRefNotStreamed(t *testing.T) {
	// The store only happens for some iterations: paper step 2c.
	f := parseFunc(t, `
rv0 := 0
rv1 := _x
LP:
L1:
r31 := (rv0 < 50)
jumpFr L2
f0 := f10
s64f f0, ((rv0 << 3) + rv1)
L2:
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	chk(Streams(f, 4))
	if countKind(f, rtl.KStreamOut) != 0 {
		t.Errorf("conditional reference streamed:\n%s", listing(f))
	}
}

func TestDeadIVRemoved(t *testing.T) {
	f := parseFunc(t, copyLoopRTL)
	chk(Streams(f, 4))
	chk(DeadIVs(f))
	for _, i := range f.Code {
		if i.Kind == rtl.KAssign {
			if b, ok := i.Src.(rtl.Bin); ok {
				if rx, ok := b.L.(rtl.RegX); ok && rx.Reg == i.Dst && b.Op == rtl.Add {
					t.Errorf("dead induction variable survived: %s\n%s", i, listing(f))
				}
			}
		}
	}
}

// --- StrengthReduce ---------------------------------------------------------------

func TestStrengthReduceHelperAddress(t *testing.T) {
	// Address needs a helper instruction in the body: (rv0-1)<<3 + base.
	f := parseFunc(t, `
rv0 := 1
rv1 := _x
LP:
L1:
rv4 := ((rv0 - 1) << 3)
l64f f0, (rv4 + rv1)
fv2 := f0
r31 := (rv0 < 100)
rv0 := (rv0 + 1)
jumpTr L1
halt`)
	// Note: compare precedes increment here, so trip analysis is not
	// involved; strength reduction still applies.
	if !chk(StrengthReduce(f)) {
		t.Fatalf("strength reduction did nothing:\n%s", listing(f))
	}
	found := false
	for _, i := range f.Code {
		if i.Kind == rtl.KLoad {
			if _, isReg := i.Addr.(rtl.RegX); isReg {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("address not reduced to pointer:\n%s", listing(f))
	}
}

func TestStrengthReduceSkipsFreeAddress(t *testing.T) {
	// (rv0 << 3) + rv1 fits WM's dual-op load: no gain.
	f := parseFunc(t, `
rv0 := 0
rv1 := _x
LP:
L1:
l64f f0, ((rv0 << 3) + rv1)
fv2 := f0
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
	if chk(StrengthReduce(f)) {
		t.Errorf("free address reduced:\n%s", listing(f))
	}
}
