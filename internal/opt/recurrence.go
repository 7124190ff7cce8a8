package opt

import (
	"slices"
	"sort"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Recurrences implements the paper's recurrence detection and
// optimization algorithm (its Figure 4 -> Figure 5 transformation):
//
//	Step 1   partition the loop's memory references by region;
//	Step 2   compute (iv, cee, dee) for each reference;
//	Step 3   safety: same iv, same cee, offsets on one lattice;
//	Step 4   for read/write pairs where the read fetches a value
//	         written on a previous iteration, carry the value in
//	         registers: retain the stored value, replace the loads
//	         with register references, emit shifting copies at the
//	         top of the loop and initial loads in the preheader.
//
// The number of registers used is degree+1, where the degree is the
// largest iteration distance.  It returns whether anything changed.
func Recurrences(f *rtl.Func, maxDegree int64) (bool, error) {
	return walkLoops(f, "Recurrences", true, func(w *loopWalk, l *cfg.Loop) bool {
		ctx := analyzeLoop(w.f, w.g, l)
		if ctx.hasCall || ctx.stream {
			return false
		}
		refs, ok := ctx.collectRefs()
		if !ok {
			return false
		}
		for _, p := range ctx.buildPartitions(refs) {
			if transformRecurrence(ctx, p, maxDegree) {
				return true
			}
		}
		return false
	})
}

// recPair is one read that fetches a value written dist iterations ago.
type recPair struct {
	read *memRef
	dist int64
}

// recPlan is a recurrence found in one partition.  The carried
// location L is the one the anchor touches: anchor is a reference to L
// that runs on every iteration, and tracked are the stores to L that
// may run after it in the same iteration.  Carried register 0 holds
// the last value of L on every path to the latch: the anchor's value,
// replaced by each tracked store that runs.  Register k holds the value
// of L from k iterations ago and feeds the reads at distance k.
type recPlan struct {
	anchor     *memRef
	tracked    []*memRef
	pairs      []recPair
	degree     int64
	iv         rtl.Reg
	strideIter int64
}

// transformRecurrence applies step 4 to one partition.  Returns whether
// the function was modified.
func transformRecurrence(ctx *loopCtx, p *partition, maxDegree int64) bool {
	if p.unsafe {
		return false
	}
	var offs []int64
	for _, r := range p.refs {
		if r.write && !slices.Contains(offs, r.lin.off) {
			offs = append(offs, r.lin.off)
		}
	}
	slices.Sort(offs)
	for _, off := range offs {
		if plan := planRecurrence(ctx, p, off, maxDegree); plan != nil {
			return applyRecurrence(ctx, plan)
		}
	}
	return false
}

// planRecurrence looks for a recurrence carried through the location
// at offset off.  Every read must run on every iteration and every
// reference must precede the induction variable's increment, so that
// all linear forms are read at one value of the induction variable.
//
// A store to another location of the partition may touch a carried
// location too: a store dw iterations behind L writes the location the
// reads at distance dw fetch.  With dw below a read's distance it would
// overwrite a carried value before that read; at the read's distance
// it must run after the read.
func planRecurrence(ctx *loopCtx, p *partition, off, maxDegree int64) *recPlan {
	// The anchor: the last reference to L that runs on every iteration,
	// a store if there is one.
	var anchor *memRef
	for _, r := range p.refs {
		if r.lin.off != off || !r.every {
			continue
		}
		if anchor == nil || (r.write && !anchor.write) ||
			(r.write == anchor.write && precedes(ctx, anchor.accIdx, r.accIdx)) {
			anchor = r
		}
	}
	if anchor == nil {
		return nil
	}
	iv := anchor.lin.iv
	ivi, ok := ctx.ivs[iv]
	if !ok || ivi.regStep {
		return nil // register steps: iteration distance is not static
	}
	plan := &recPlan{anchor: anchor, iv: iv, strideIter: anchor.lin.cee * ivi.step}
	if plan.strideIter == 0 {
		return nil
	}
	// Addresses read after the induction variable's increment would
	// shift the linear form by one step; require program order
	// ref-then-increment (the expander's rotated loops guarantee it).
	// The conditional stores of an if-arm qualify too (afterIncrement).
	for _, r := range p.refs {
		if after, ok := afterIncrement(ctx, ivi.defIdx, r.accIdx); !ok || after || (!r.write && !r.every) {
			return nil
		}
	}
	innermost := isInnermost(ctx)
	for _, r := range p.refs {
		if r.write {
			continue
		}
		delta := off - r.lin.off
		if delta == 0 || delta%plan.strideIter != 0 {
			continue
		}
		d := delta / plan.strideIter
		if d < 1 {
			continue // reads ahead of the write: not a recurrence
		}
		if d > maxDegree {
			return nil // not enough registers (paper step 4a remark)
		}
		if r.size != anchor.size || r.class != anchor.class {
			return nil
		}
		plan.pairs = append(plan.pairs, recPair{r, d})
		plan.degree = max(plan.degree, d)
	}
	if len(plan.pairs) == 0 {
		return nil
	}
	for _, w := range p.refs {
		if !w.write || w == anchor {
			continue
		}
		delta := off - w.lin.off
		if delta%plan.strideIter != 0 {
			continue // never touches a carried location
		}
		dw := delta / plan.strideIter
		if dw == 0 {
			switch {
			case precedes(ctx, max(anchor.accIdx, anchor.dataIdx), w.dataIdx):
				plan.tracked = append(plan.tracked, w)
			case precedes(ctx, w.accIdx, anchor.accIdx), innermost:
				// Before the anchor, which then reloads or overwrites
				// L.  In an innermost loop every block the anchor does
				// not dominate is reached only before it.  A store in
				// the anchor's own block runs every iteration, so the
				// anchor, the last such store, follows it.
			default:
				return nil
			}
			continue
		}
		for _, pr := range plan.pairs {
			if dw > 0 && (dw < pr.dist || dw == pr.dist && !precedes(ctx, pr.read.accIdx, w.accIdx)) {
				return nil
			}
		}
	}
	// The carried register stands for memory only if the stores into it
	// keep every bit.
	for _, w := range append([]*memRef{anchor}, plan.tracked...) {
		if w.write && !fullWidth(w) {
			return nil
		}
	}
	return plan
}

// isInnermost reports whether the loop contains no other loop.
func isInnermost(ctx *loopCtx) bool {
	for b := range ctx.loop.Blocks {
		for _, s := range b.Succs {
			if s != ctx.loop.Header && ctx.loop.Blocks[s] && ctx.g.Dominates(s, b) {
				return false
			}
		}
	}
	return true
}

// anchorCarrier returns the register an anchor load's plain dequeue
// "y := fifo" fills, when y can carry L itself: the dequeue is its only
// definition in the loop, and y is dead on entry to the loop and after
// each tracked store, which will set it.  This saves the copy a fresh
// register would need when y is also read after a tracked store's
// value site could be reached (bubblesort's swap path stores a[j+1]'s
// loaded value into a[j] before storing into a[j+1]).
func anchorCarrier(ctx *loopCtx, plan *recPlan) (rtl.Reg, bool) {
	anchor := plan.anchor
	if anchor.write {
		return rtl.Reg{}, false
	}
	deq := ctx.f.Code[anchor.dataIdx]
	rx, isReg := deq.Src.(rtl.RegX)
	y := deq.Dst
	fifo := rtl.Reg{Class: anchor.class, N: ctx.f.Code[anchor.accIdx].FIFO.N}
	if deq.Kind != rtl.KAssign || !isReg || rx.Reg != fifo || y.IsFIFO() || y.IsZero() ||
		y.Class != anchor.class || ctx.defCount[y] != 1 {
		return rtl.Reg{}, false
	}
	ctx.g.Liveness()
	if ctx.loop.Header.LiveIn.Has(y) {
		return rtl.Reg{}, false
	}
	for _, w := range plan.tracked {
		dead := true
		ctx.g.LiveAtEach(ctx.g.BlockOf(w.dataIdx), func(n int, _ *rtl.Instr, liveAfter cfg.RegSet) {
			if n == w.dataIdx && liveAfter.Has(y) {
				dead = false
			}
		})
		if !dead {
			return rtl.Reg{}, false
		}
	}
	return y, true
}

// applyRecurrence rewrites the loop for plan (paper steps 4b-4d).
func applyRecurrence(ctx *loopCtx, plan *recPlan) bool {
	f := ctx.f
	anchor := plan.anchor
	class := anchor.class
	label := ctx.loopLabel()

	// Step 4b: retain the value of L in a register.  A lone store keeps
	// its source register when that is a plain register, and an anchor
	// load its destination register when anchorCarrier allows.
	// Otherwise every value site of L sets a fresh register v: the
	// enqueue "fifo := expr" of a store becomes "v := expr; fifo := v",
	// and the dequeue of an anchor load reads the FIFO through v.
	recRegs := make([]rtl.Reg, plan.degree+1)
	type insertion struct {
		at  int
		ins *rtl.Instr
	}
	var inserts []insertion
	sites := append([]*memRef{anchor}, plan.tracked...)
	enq := f.Code[anchor.dataIdx]
	if rx, isReg := enq.Src.(rtl.RegX); anchor.write && len(plan.tracked) == 0 && isReg && !rx.Reg.IsFIFO() && !rx.Reg.IsZero() {
		recRegs[0] = rx.Reg
		sites = nil
	} else if y, ok := anchorCarrier(ctx, plan); ok {
		recRegs[0] = y
		sites = plan.tracked
	} else {
		recRegs[0] = f.NewVirt(class)
	}
	v := recRegs[0]
	for _, w := range sites {
		data := f.Code[w.dataIdx]
		var val *rtl.Instr
		if w.write {
			val = rtl.NewAssign(v, data.Src)
			data.Src = rtl.RX(v)
		} else {
			fifo := rtl.Reg{Class: class, N: f.Code[w.accIdx].FIFO.N}
			val = rtl.NewAssign(v, rtl.RX(fifo))
			data.MapExprs(func(x rtl.Expr) rtl.Expr { return rtl.SubstReg(x, fifo, rtl.RX(v)) })
		}
		val.Note = "recurrence value"
		inserts = append(inserts, insertion{w.dataIdx, val})
	}
	for k := int64(1); k <= plan.degree; k++ {
		recRegs[k] = f.NewVirt(class)
	}

	// Step 4b continued: replace each recurrence read with a register
	// reference and delete its load.
	var deletes []int
	for _, pr := range plan.pairs {
		fifo := rtl.Reg{Class: class, N: f.Code[pr.read.accIdx].FIFO.N}
		deq := f.Code[pr.read.dataIdx]
		deq.MapExprs(func(x rtl.Expr) rtl.Expr {
			return rtl.SubstReg(x, fifo, rtl.RX(recRegs[pr.dist]))
		})
		if deq.Note == "" {
			deq.Note = "recurrence register"
		}
		deletes = append(deletes, pr.read.accIdx)
	}
	// Insert and delete from the highest index down so positions stay
	// valid.
	sort.Slice(inserts, func(i, j int) bool { return inserts[i].at > inserts[j].at })
	sort.Sort(sort.Reverse(sort.IntSlice(deletes)))
	for len(inserts) > 0 || len(deletes) > 0 {
		if len(deletes) == 0 || len(inserts) > 0 && inserts[0].at > deletes[0] {
			f.Insert(inserts[0].at, inserts[0].ins)
			inserts = inserts[1:]
		} else {
			f.Remove(deletes[0])
			deletes = deletes[1:]
		}
	}

	// Step 4c: shifting copies at the top of the loop, highest degree
	// first so nothing is overwritten prematurely.
	hdr := f.FindLabel(label)
	if hdr < 0 {
		return false
	}
	pos := hdr + 1
	for k := plan.degree; k >= 1; k-- {
		cp := rtl.NewAssign(recRegs[k], rtl.RX(recRegs[k-1]))
		cp.Note = "carry recurrence value"
		f.Insert(pos, cp)
		pos++
	}

	// Step 4d: initial loads in the preheader: recRegs[k-1] holds the
	// value the first iteration reads at distance k.  Inserting before
	// the header label places the code at the end of the preheader.
	fifo := rtl.Reg{Class: class, N: rtl.FIFO0}
	var seq []*rtl.Instr
	for k := int64(1); k <= plan.degree; k++ {
		addr := buildLinExpr(f, &seq, anchor.lin, plan.iv, anchor.lin.off-k*plan.strideIter, class)
		ld := rtl.NewLoad(fifo, addr, anchor.size)
		ld.Note = "preload recurrence value"
		seq = append(seq, ld)
		mv := rtl.NewAssign(recRegs[k-1], rtl.RX(fifo))
		mv.Note = "initial recurrence value"
		seq = append(seq, mv)
	}
	f.Insert(hdr, seq...)
	return true
}

// buildLinExpr reconstructs cee*iv + bases + off as an expression,
// appending any helper instructions to seq (they are inserted together
// with the loads).
func buildLinExpr(f *rtl.Func, seq *[]*rtl.Instr, lin linform, iv rtl.Reg, off int64, class rtl.Class) rtl.Expr {
	var e rtl.Expr
	if lin.cee != 0 {
		e = ivTerm(rtl.RX(iv), lin.cee)
	}
	for _, b := range lin.base {
		var term rtl.Expr
		if b[0] == '_' {
			t := f.NewVirt(rtl.Int)
			ins := rtl.NewAssign(t, rtl.Sym{Name: b[1:]})
			*seq = append(*seq, ins)
			term = rtl.RX(t)
		} else if r, ok := rtl.ParseReg(b); ok {
			term = rtl.RX(r)
		} else {
			continue
		}
		if e == nil {
			e = term
		} else {
			e = rtl.B(rtl.Add, e, term)
		}
	}
	if e == nil {
		e = rtl.I(off)
	} else if off != 0 {
		e = rtl.B(rtl.Add, e, rtl.I(off))
	}
	return e
}

// ivTerm returns cee·iv, a shift when cee is a power of two.
func ivTerm(iv rtl.Expr, cee int64) rtl.Expr {
	if s := log2i64(cee); s >= 0 {
		return rtl.B(rtl.Shl, iv, rtl.I(int64(s)))
	}
	return rtl.B(rtl.Mul, iv, rtl.I(cee))
}

func log2i64(n int64) int {
	for s := 0; s < 62; s++ {
		if int64(1)<<uint(s) == n {
			return s
		}
	}
	return -1
}
