package opt

import (
	"fmt"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// StrengthReduce replaces induction-variable address arithmetic with
// derived pointers stepped once per iteration — the paper's streaming
// step 3, and the transformation that yields the auto-increment
// addressing of the Motorola 68020 code in Figure 6.
//
// On WM an address of the form (iv << k) + base is free (it fits the
// dual-operation load), so only references whose address needs extra
// in-body helper instructions are reduced.  The scalar backend
// (package scalar) reuses the same analysis with a stricter notion of
// what an addressing mode can absorb.
func StrengthReduce(f *rtl.Func) (bool, error) {
	return strengthReduce(f, wmAddrNeedsHelp, true)
}

// StrengthReduceWith runs the pass with a custom "address needs help"
// predicate (used by the scalar backend), without the offset fold.
func StrengthReduceWith(f *rtl.Func, needsHelp func(lin linform) bool) (bool, error) {
	return strengthReduce(f, needsHelp, false)
}

// wmAddrNeedsHelp: only addresses that required expanding in-loop
// helper definitions cost extra instructions on WM.
func wmAddrNeedsHelp(lin linform) bool { return lin.expanded }

// strengthReduce reduces one group of a loop's references to a derived
// pointer, or folds one offset, per visit.
func strengthReduce(f *rtl.Func, needsHelp func(lin linform) bool, fold bool) (bool, error) {
	return walkLoops(f, "StrengthReduce", true, func(w *loopWalk, l *cfg.Loop) bool {
		return reduceLoop(analyzeLoop(w, l), needsHelp, fold)
	})
}

func reduceLoop(ctx *loopCtx, needsHelp func(linform) bool, fold bool) bool {
	f := ctx.f
	if ctx.hasCall {
		return false
	}
	refs, ok := ctx.collectRefs()
	if !ok {
		return false
	}
	// Group reducible references by (iv, cee, region) so that
	// references differing only by a constant offset share one derived
	// pointer and one step per iteration — x[i] and x[i-1] become p@0
	// and p@-8 off a single pointer.
	groups := map[string][]*memRef{}
	var order []string
	for _, r := range refs {
		if r.unknown || !r.lin.hasIV() || !needsHelp(r.lin) {
			continue
		}
		if alreadyReduced(ctx, f.Code[r.accIdx].Addr) {
			continue // address is a derived pointer (+ offset) already
		}
		ivi, ok := ctx.ivOf(r.lin.iv)
		if !ok || ivi.regStep {
			continue
		}
		if !precedes(ctx, r.accIdx, ivi.defIdx) {
			continue // address read after the increment: lin form shifts
		}
		key := r.lin.iv.String() + "/" + fmt.Sprint(r.lin.cee) + "/" + r.lin.baseKey()
		if groups[key] == nil {
			order = append(order, key)
		}
		groups[key] = append(groups[key], r)
	}
	for _, key := range order {
		grp := groups[key]
		if reduceGroup(ctx, grp, ctx.ivs.Get(grp[0].lin.iv)) {
			return true
		}
	}
	if fold {
		for _, r := range refs {
			if !r.every && foldOffset(ctx, r.accIdx) {
				return true
			}
		}
	}
	return false
}

// foldOffset moves the constant of an index into the base for an
// access that does not run on every iteration (one on a conditional
// arm, which derived pointers do not serve).  Its address
// ((x << s) + B), with x := y ± c earlier in the same block, x used
// nowhere else, y unchanged in between and B invariant, becomes
// ((y << s) + B'), where the preheader computes B' := B ± (c << s).
// In bubblesort's swap arm y is the induction variable j and x is j+1.
// The access then needs no index arithmetic of its own, and dead-code
// elimination deletes x's definition.  It reports whether it changed
// the code.
func foldOffset(ctx *loopCtx, acc int) bool {
	f := ctx.f
	i := f.Code[acc]
	sum, ok := i.Addr.(rtl.Bin)
	if !ok || sum.Op != rtl.Add {
		return false
	}
	shl, ok := sum.L.(rtl.Bin)
	bx, bok := sum.R.(rtl.RegX)
	if !ok {
		shl, ok = sum.R.(rtl.Bin)
		bx, bok = sum.L.(rtl.RegX)
	}
	if !ok || !bok || shl.Op != rtl.Shl || bx.Reg.Class != rtl.Int || !ctx.invariant(bx.Reg) {
		return false
	}
	xx, xok := shl.L.(rtl.RegX)
	sh, sok := shl.R.(rtl.Imm)
	if !xok || !sok || sh.V < 0 || sh.V >= 32 || ctx.defCount(xx.Reg) != 1 {
		return false
	}
	x, d := xx.Reg, ctx.defIdx.Get(xx.Reg)[0]
	def := f.Code[d]
	if def.Kind != rtl.KAssign || d > acc || ctx.g.BlockOf(d) != ctx.g.BlockOf(acc) {
		return false
	}
	add, ok := def.Src.(rtl.Bin)
	if !ok || add.Op != rtl.Add && add.Op != rtl.Sub {
		return false
	}
	yx, yok := add.L.(rtl.RegX)
	c, cok := add.R.(rtl.Imm)
	if !yok || !cok || yx.Reg.IsFIFO() {
		return false
	}
	for _, n := range ctx.defIdx.Get(yx.Reg) {
		if d < n && n < acc {
			return false // y changes between x's definition and the access
		}
	}
	uses := 0
	var regs []rtl.Reg
	for _, in := range f.Code {
		regs = in.Uses(regs[:0])
		for _, u := range regs {
			if u == x {
				uses++
			}
		}
	}
	if uses != 1 {
		return false
	}
	off := c.V << uint(sh.V)
	if add.Op == rtl.Sub {
		off = -off
	}
	hdr := f.FindLabel(ctx.loopLabel())
	if hdr < 0 {
		return false
	}
	base := f.NewVirt(rtl.Int)
	i.Addr = rtl.B(rtl.Add, rtl.B(rtl.Shl, yx, sh), rtl.RX(base))
	init := rtl.NewAssign(base, rtl.B(rtl.Add, bx, rtl.I(off)))
	init.Note = "base with folded offset"
	f.Insert(hdr, init)
	return true
}

// alreadyReduced reports whether an address is already in the form a
// derived pointer produces — a stepped induction variable or invariant
// register, plus at most a constant — which every machine's addressing
// modes absorb.  A bare register that is merely an in-loop helper
// (recomputed from the induction variable each iteration) does NOT
// count: that is exactly what this pass eliminates.
func alreadyReduced(ctx *loopCtx, addr rtl.Expr) bool {
	var base rtl.Reg
	switch x := addr.(type) {
	case rtl.RegX:
		base = x.Reg
	case rtl.Bin:
		if x.Op != rtl.Add {
			return false
		}
		rx, lReg := x.L.(rtl.RegX)
		_, rImm := x.R.(rtl.Imm)
		if !lReg || !rImm {
			return false
		}
		base = rx.Reg
	default:
		return false
	}
	if ctx.isIV(base) {
		return true
	}
	return ctx.invariant(base)
}

// reduceGroup rewrites a group of same-region references through one
// shared derived pointer.
func reduceGroup(ctx *loopCtx, grp []*memRef, ivi ivInfo) bool {
	f := ctx.f
	hdrLabel := ctx.loopLabel()
	if hdrLabel == "" {
		return false
	}
	base := grp[0]
	stride := base.lin.cee * ivi.step
	p := f.NewVirt(rtl.Int)

	// Body: replace every address with p (+ constant delta), then bump
	// the pointer once, right after the induction variable's own
	// increment.
	for _, r := range grp {
		acc := f.Code[r.accIdx]
		delta := r.lin.off - base.lin.off
		if delta == 0 {
			acc.Addr = rtl.RX(p)
		} else {
			acc.Addr = rtl.B(rtl.Add, rtl.RX(p), rtl.I(delta))
		}
	}
	bump := rtl.NewAssign(p, rtl.B(rtl.Add, rtl.RX(p), rtl.I(stride)))
	bump.Note = "derived pointer step"
	f.Insert(ivi.defIdx+1, bump)

	// Preheader: initialize the pointer.
	hdr := f.FindLabel(hdrLabel)
	if hdr < 0 {
		return false
	}
	var seq []*rtl.Instr
	addr := buildLinExpr(ctx, &seq, base.lin, base.lin.iv, base.lin.off, base.class)
	init := rtl.NewAssign(p, addr)
	init.Note = "derived pointer"
	seq = append(seq, init)
	f.Insert(hdr, seq...)
	return true
}
