package cfg

import (
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// mustParse builds a function from assembler text.
func mustParse(t *testing.T, body string) *rtl.Func {
	t.Helper()
	p, err := rtl.Parse(".func t\n" + body + "\n.end\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p.Func("t")
}

func mustBuild(t *testing.T, f *rtl.Func) *Graph {
	t.Helper()
	g, err := Build(f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildStraightLine(t *testing.T) {
	f := mustParse(t, `
r2 := 1
r3 := 2
ret`)
	g := mustBuild(t, f)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1\n%s", len(g.Blocks), g)
	}
	if len(g.Entry.Succs) != 0 {
		t.Errorf("ret block has successors: %s", g)
	}
}

func TestBuildDiamond(t *testing.T) {
	f := mustParse(t, `
r31 := (r2 < r3)
jumpTr Lthen
r4 := 1
jump Lend
Lthen:
r4 := 2
Lend:
ret`)
	g := mustBuild(t, f)
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g)
	}
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("entry succs = %d", len(g.Entry.Succs))
	}
	end := g.LabelBlock("Lend")
	if end == nil || len(end.Preds) != 2 {
		t.Fatalf("Lend preds wrong: %s", g)
	}
	g.Dominators()
	if !g.Dominates(g.Entry, end) {
		t.Error("entry should dominate exit")
	}
	then := g.LabelBlock("Lthen")
	if g.Dominates(then, end) {
		t.Error("then branch must not dominate merge")
	}
	if g.Idom(end) != g.Entry {
		t.Errorf("idom(end) = B%d, want entry", g.Idom(end).Index)
	}
}

func TestBuildLoop(t *testing.T) {
	f := mustParse(t, `
r2 := 0
L1:
r2 := (r2 + 1)
r31 := (r2 < 10)
jumpTr L1
ret`)
	g := mustBuild(t, f)
	g.Dominators()
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(loops), g)
	}
	l := loops[0]
	if l.Header != g.LabelBlock("L1") {
		t.Error("wrong header")
	}
	if len(l.Blocks) != 1 {
		t.Errorf("loop blocks = %d, want 1", len(l.Blocks))
	}
	if l.Preheader == nil || l.Preheader != g.Entry {
		t.Errorf("preheader = %v", l.Preheader)
	}
	if len(l.Exits) != 1 || len(l.ExitTargets) != 1 {
		t.Errorf("exits = %d targets = %d", len(l.Exits), len(l.ExitTargets))
	}
	if l.Depth != 1 || l.Parent != nil {
		t.Errorf("depth = %d parent = %v", l.Depth, l.Parent)
	}
}

func TestNestedLoops(t *testing.T) {
	f := mustParse(t, `
r2 := 0
Louter:
r3 := 0
Linner:
r3 := (r3 + 1)
r31 := (r3 < 10)
jumpTr Linner
r2 := (r2 + 1)
r31 := (r2 < 10)
jumpTr Louter
ret`)
	g := mustBuild(t, f)
	g.Dominators()
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	// Innermost first.
	inner, outer := loops[0], loops[1]
	if inner.Header != g.LabelBlock("Linner") || outer.Header != g.LabelBlock("Louter") {
		t.Fatalf("loop order wrong: inner=%v outer=%v", inner.Header.Index, outer.Header.Index)
	}
	if inner.Parent != outer || inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("nesting wrong: parent=%v depths=%d,%d", inner.Parent, inner.Depth, outer.Depth)
	}
	if !outer.Blocks[inner.Header] {
		t.Error("outer loop should contain inner header")
	}
}

func TestNoPreheaderWhenEntrySplits(t *testing.T) {
	// The outside predecessor also branches elsewhere, so it cannot act
	// as a preheader.
	f := mustParse(t, `
r31 := (r2 < r3)
jumpTr Lskip
L1:
r2 := (r2 + 1)
r31 := (r2 < 10)
jumpTr L1
Lskip:
ret`)
	g := mustBuild(t, f)
	g.Dominators()
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	if loops[0].Preheader != nil {
		t.Errorf("unexpected preheader B%d", loops[0].Preheader.Index)
	}
}

func TestLivenessStraightLine(t *testing.T) {
	f := mustParse(t, `
r3 := (r2 + 1)
r4 := (r3 + r5)
halt`)
	g := mustBuild(t, f)
	g.Liveness()
	in := g.Entry.LiveIn
	if !in.Has(rtl.R(2)) || !in.Has(rtl.R(5)) {
		t.Errorf("live-in = %v, want r2 and r5", in)
	}
	if in.Has(rtl.R(3)) || in.Has(rtl.R(4)) {
		t.Errorf("live-in = %v contains defined regs", in)
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	f := mustParse(t, `
r2 := 0
L1:
r2 := (r2 + r3)
r31 := (r2 < 10)
jumpTr L1
halt`)
	g := mustBuild(t, f)
	g.Liveness()
	loopB := g.LabelBlock("L1")
	if !loopB.LiveIn.Has(rtl.R(2)) || !loopB.LiveIn.Has(rtl.R(3)) {
		t.Errorf("loop live-in = %v", loopB.LiveIn)
	}
	if !loopB.LiveOut.Has(rtl.R(2)) {
		t.Errorf("loop live-out = %v, r2 should be live around the back edge", loopB.LiveOut)
	}
}

func TestLivenessCallClobbers(t *testing.T) {
	f := mustParse(t, `
r10 := 5
call foo
r11 := (r10 + 1)
halt`)
	g := mustBuild(t, f)
	g.Liveness()
	// Every allocatable register is caller-saved, so the call's clobber
	// def kills r10: the use after the call does NOT make r10 live
	// before it.  This is exactly the hazard that forbids keeping
	// values in registers across calls; the register assigner relies on
	// this shape of the liveness solution.
	live := map[int]RegSet{}
	g.LiveAtEach(g.Entry, func(idx int, i *rtl.Instr, after RegSet) {
		live[idx] = after.Clone()
	})
	if live[0].Has(rtl.R(10)) {
		t.Errorf("r10 live across call despite clobber: %v", live[0])
	}
	if !live[1].Has(rtl.R(10)) {
		t.Errorf("r10 not live after the call that (re)defines it: %v", live[1])
	}
	if g.Entry.LiveIn.Has(rtl.R(10)) {
		t.Errorf("live-in = %v", g.Entry.LiveIn)
	}
}

func TestFIFOAndZeroNotTracked(t *testing.T) {
	f := mustParse(t, `
f20 := f0
f0 := f20
r31 := (r2 < 1)
halt`)
	g := mustBuild(t, f)
	g.Liveness()
	if g.Entry.LiveIn.Has(rtl.F0) || g.Entry.LiveIn.Has(rtl.R31) {
		t.Errorf("live-in tracks FIFO/zero regs: %v", g.Entry.LiveIn)
	}
	if !g.Entry.LiveIn.Has(rtl.R(2)) {
		t.Errorf("live-in missing r2: %v", g.Entry.LiveIn)
	}
}

func TestLiveAtEachOrder(t *testing.T) {
	f := mustParse(t, `
r2 := 1
r3 := (r2 + 1)
halt`)
	g := mustBuild(t, f)
	g.Liveness()
	var idxs []int
	g.LiveAtEach(g.Entry, func(idx int, i *rtl.Instr, after RegSet) {
		idxs = append(idxs, idx)
		if idx == 0 && !after.Has(rtl.R(2)) {
			t.Errorf("r2 not live after its def: %v", after)
		}
	})
	if len(idxs) != 3 || idxs[0] != 2 || idxs[2] != 0 {
		t.Errorf("walk order = %v", idxs)
	}
}

func TestRegSetOps(t *testing.T) {
	s := NewRegSet()
	s.Add(rtl.R(1))
	s.Add(rtl.R(2))
	u := NewRegSet()
	u.Add(rtl.R(2))
	u.Add(rtl.F(3))
	if !s.AddAll(u) {
		t.Error("AddAll should report growth")
	}
	if s.AddAll(u) {
		t.Error("second AddAll should not grow")
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	c := s.Clone()
	c.Remove(rtl.R(1))
	if !s.Has(rtl.R(1)) {
		t.Error("Clone aliases")
	}
	if s.Equal(c) {
		t.Error("Equal wrong")
	}
	if got := u.String(); got != "{f3 r2}" {
		t.Errorf("String = %q", got)
	}
}

func TestBlockOf(t *testing.T) {
	f := mustParse(t, `
r2 := 1
L1:
r3 := 2
ret`)
	g := mustBuild(t, f)
	if g.BlockOf(0) != g.Blocks[0] || g.BlockOf(2) != g.Blocks[1] {
		t.Errorf("BlockOf wrong: %s", g)
	}
	if g.BlockOf(99) != nil {
		t.Error("BlockOf out of range should be nil")
	}
}

// TestBlockOfBounds checks the binary search at its edges, against a
// linear scan over every index of a many-block function.
func TestBlockOfBounds(t *testing.T) {
	f := mustParse(t, `
r2 := 1
r31 := (r2 < 3)
jumpTr L2
L1:
r3 := 2
r31 := (r3 < 4)
jumpTr L1
L2:
L3:
r4 := 3
ret`)
	g := mustBuild(t, f)
	n := len(f.Code)
	if g.BlockOf(0) != g.Entry {
		t.Errorf("BlockOf(0) = %v, want the entry block", g.BlockOf(0))
	}
	if g.BlockOf(n-1) != g.Blocks[len(g.Blocks)-1] {
		t.Errorf("BlockOf(last) = %v, want the last block", g.BlockOf(n-1))
	}
	if g.BlockOf(-1) != nil || g.BlockOf(n) != nil {
		t.Error("BlockOf outside the code should be nil")
	}
	for k := 0; k < n; k++ {
		var want *Block
		for _, b := range g.Blocks {
			if k >= b.Start && k < b.End {
				want = b
			}
		}
		if got := g.BlockOf(k); got != want {
			t.Errorf("BlockOf(%d) = B%d, want B%d", k, got.Index, want.Index)
		}
	}

	empty := mustBuild(t, rtl.NewFunc("empty"))
	for _, k := range []int{-1, 0, 1} {
		if b := empty.BlockOf(k); b != nil {
			t.Errorf("empty function: BlockOf(%d) = B%d, want nil", k, b.Index)
		}
	}
}

func TestJumpNotDoneEdge(t *testing.T) {
	f := mustParse(t, `
sin64f f0, r2, r3, 8
L1:
f22 := (f0 + f22)
jnd f0, L1
halt`)
	g := mustBuild(t, f)
	g.Dominators()
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("stream loop not detected: %s", g)
	}
	if loops[0].Header != g.LabelBlock("L1") {
		t.Error("wrong stream loop header")
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	f := mustParse(t, `
r31 := (r2 < r3)
jumpTr L2
L1:
r4 := 1
jump L3
L2:
r4 := 2
L3:
ret`)
	g := mustBuild(t, f)
	order := g.ReversePostorder()
	if order[0] != g.Entry {
		t.Error("rpo must start at entry")
	}
	seen := map[*Block]bool{}
	for _, b := range order {
		for _, p := range b.Preds {
			_ = p
		}
		seen[b] = true
	}
	if len(seen) != len(g.Blocks) {
		t.Errorf("rpo missed blocks: %d/%d", len(seen), len(g.Blocks))
	}
}

func TestBuildRejectsUnknownBranchTarget(t *testing.T) {
	f := mustParse(t, `
L1:
	r4 := r5
	jump L_missing
`)
	g, err := Build(f)
	if err == nil {
		t.Fatal("Build accepted a branch to an undefined label")
	}
	if g != nil {
		t.Error("Build returned a graph alongside the error")
	}
	for _, want := range []string{"t", "L_missing", "unknown label"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
