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
// Where every conditional store of a degree-1 recurrence writes back
// the carried value itself, the one copy moves off the storing paths
// instead (keepCarry).
//
// The number of registers used is degree+1, where the degree is the
// largest iteration distance.  It returns whether anything changed.
func Recurrences(f *rtl.Func, maxDegree int64) (bool, error) {
	return walkLoops(f, "Recurrences", true, func(w *loopWalk, l *cfg.Loop) bool {
		ctx := analyzeLoop(w, l)
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
	ivi, ok := ctx.ivOf(iv)
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
	y, ok := plainDequeue(ctx, plan.anchor)
	if !ok {
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

// plainDequeue returns y when the load r's datum is dequeued by a plain
// "y := fifo", y's only definition in the loop.
func plainDequeue(ctx *loopCtx, r *memRef) (rtl.Reg, bool) {
	if r.write {
		return rtl.Reg{}, false
	}
	deq := ctx.f.Code[r.dataIdx]
	rx, isReg := deq.Src.(rtl.RegX)
	y := deq.Dst
	fifo := rtl.Reg{Class: r.class, N: ctx.f.Code[r.accIdx].FIFO.N}
	if deq.Kind != rtl.KAssign || !isReg || rx.Reg != fifo || y.IsFIFO() || y.IsZero() ||
		y.Class != r.class || ctx.defCount(y) != 1 {
		return rtl.Reg{}, false
	}
	return y, true
}

// keepCarry reports whether plan's carry can stay where its tracked
// stores leave it.  It can when the plan has degree 1, its anchor is a
// load, and every tracked store writes the old carry (the value the
// distance-1 reads fetch, possibly through one copy).  Every write of L
// after the anchor is tracked, so the last write of L on a path that
// runs one writes the old carry too, and the iteration ends with L
// holding the carry's own value.  Only the paths that run no tracked
// store need the anchor's value copied into the carry, and they need it
// only on their way into the latch: keepCarry returns the edit that
// splits those edges.  Every predecessor of the latch must lie on paths
// of one kind, and the latch, which runs after the copy, may hold no
// tracked store, no distance-1 read and not the anchor.
func keepCarry(ctx *loopCtx, plan *recPlan) (splitEdges, bool) {
	g, l := ctx.g, ctx.loop
	if plan.degree != 1 || plan.anchor.write || len(plan.tracked) == 0 || len(l.Latches) != 1 {
		return splitEdges{}, false
	}
	latch := l.Latches[0]
	if latch == l.Header || ctx.f.Code[latch.Start].Kind != rtl.KLabel || g.BlockOf(plan.anchor.dataIdx) == latch {
		return splitEdges{}, false
	}
	for _, pr := range plan.pairs {
		if g.BlockOf(pr.read.dataIdx) == latch {
			return splitEdges{}, false
		}
	}
	stores := map[*cfg.Block]bool{}
	var from []*cfg.Block
	for _, w := range plan.tracked {
		b := g.BlockOf(w.accIdx)
		if b == latch || !writesOldCarry(ctx, plan, w) {
			return splitEdges{}, false
		}
		stores[b] = true
		from = append(from, b)
	}
	stored := iterationReach(l, from, nil)
	unstored := iterationReach(l, []*cfg.Block{l.Header}, stores)
	split := splitEdges{latch: ctx.f.Code[latch.Start].Name}
	fallsIn := false // a predecessor that runs a tracked store falls into the latch
	for _, p := range latch.Preds {
		if stored[p] == unstored[p] {
			return splitEdges{}, false
		}
		last := ctx.f.Code[p.End-1]
		if unstored[p] && last.IsBranch() && last.Target == split.latch {
			split.retarget = append(split.retarget, last)
		}
		if unstored[p] {
			split.copies = true
		} else if p.End == latch.Start && last.Kind != rtl.KJump {
			fallsIn = true
		}
	}
	split.jumpOver = split.copies && fallsIn
	return split, true
}

// writesOldCarry reports whether the tracked store w writes the value a
// distance-1 read of plan dequeued in the same iteration, directly or
// through one copy.
func writesOldCarry(ctx *loopCtx, plan *recPlan, w *memRef) bool {
	data := ctx.f.Code[w.dataIdx]
	rx, isReg := data.Src.(rtl.RegX)
	if data.Kind != rtl.KAssign || !isReg {
		return false
	}
	r, at := rx.Reg, w.dataIdx
	for range 2 {
		if r.IsFIFO() || r.IsZero() || ctx.defCount(r) != 1 {
			return false
		}
		d := ctx.defIdx.Get(r)[0]
		def := ctx.f.Code[d]
		src, isReg := def.Src.(rtl.RegX)
		if def.Kind != rtl.KAssign || !isReg || !precedes(ctx, d, at) {
			return false
		}
		for _, pr := range plan.pairs {
			if pr.read.dataIdx == d && src.Reg == (rtl.Reg{Class: pr.read.class, N: ctx.f.Code[pr.read.accIdx].FIFO.N}) {
				return true
			}
		}
		r, at = src.Reg, d
	}
	return false
}

// iterationReach returns the loop blocks reachable from the blocks in
// from, which count themselves, without starting a new iteration and
// without entering a block in stop.
func iterationReach(l *cfg.Loop, from []*cfg.Block, stop map[*cfg.Block]bool) map[*cfg.Block]bool {
	seen := map[*cfg.Block]bool{}
	stack := append([]*cfg.Block(nil), from...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] || stop[b] || !l.Blocks[b] {
			continue
		}
		seen[b] = true
		for _, s := range b.Succs {
			if s != l.Header {
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// applyRecurrence rewrites the loop for plan (paper steps 4b-4d).
func applyRecurrence(ctx *loopCtx, plan *recPlan) bool {
	f := ctx.f
	anchor := plan.anchor
	class := anchor.class
	label := ctx.loopLabel()
	split, keep := keepCarry(ctx, plan)

	// Step 4b: retain the value of L in a register.  A lone store keeps
	// its source register when that is a plain register, and an anchor
	// load its destination register when anchorCarrier allows.
	// Otherwise every value site of L sets a fresh register v: the
	// enqueue "fifo := expr" of a store becomes "v := expr; fifo := v",
	// and the dequeue of an anchor load reads the FIFO through v.  A
	// kept carry needs no value site at its tracked stores, and the
	// anchor's value gets a register of its own, as a plain dequeue
	// already has.
	recRegs := make([]rtl.Reg, plan.degree+1)
	type insertion struct {
		at  int
		ins *rtl.Instr
	}
	var inserts []insertion
	sites := append([]*memRef{anchor}, plan.tracked...)
	enq := f.Code[anchor.dataIdx]
	if y, ok := plainDequeue(ctx, anchor); keep && ok {
		recRegs[0] = y
		sites = nil
	} else if keep {
		recRegs[0] = f.NewVirt(class)
		sites = sites[:1]
	} else if rx, isReg := enq.Src.(rtl.RegX); anchor.write && len(plan.tracked) == 0 && isReg && !rx.Reg.IsFIFO() && !rx.Reg.IsZero() {
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
	if keep {
		// keepCarry proved each tracked store writes the old carry.
		for _, w := range plan.tracked {
			f.Code[w.dataIdx].Src = rtl.RX(recRegs[1])
		}
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
	// first so nothing is overwritten prematurely.  A kept carry instead
	// takes the anchor's value on the edges into the latch that run no
	// tracked store.
	if keep {
		split.insert(f, rtl.NewAssign(recRegs[1], rtl.RX(recRegs[0])))
	}
	hdr := f.FindLabel(label)
	if hdr < 0 {
		return false
	}
	pos := hdr + 1
	for k := plan.degree; k >= 1 && !keep; k-- {
		cp := rtl.NewAssign(recRegs[k], rtl.RX(recRegs[k-1]))
		cp.Note = "carry recurrence value"
		f.Insert(pos, cp)
		pos++
	}

	// Step 4d: initial loads in the preheader: recRegs[k-1] holds the
	// value the first iteration reads at distance k (a kept carry,
	// recRegs[1], holds it itself).  Inserting before the header label
	// places the code at the end of the preheader.
	fifo := rtl.Reg{Class: class, N: rtl.FIFO0}
	var seq []*rtl.Instr
	for k := int64(1); k <= plan.degree; k++ {
		addr := buildLinExpr(ctx, &seq, anchor.lin, plan.iv, anchor.lin.off-k*plan.strideIter, class)
		ld := rtl.NewLoad(fifo, addr, anchor.size)
		ld.Note = "preload recurrence value"
		seq = append(seq, ld)
		dst := recRegs[k-1]
		if keep {
			dst = recRegs[k]
		}
		mv := rtl.NewAssign(dst, rtl.RX(fifo))
		mv.Note = "initial recurrence value"
		seq = append(seq, mv)
	}
	f.Insert(hdr, seq...)
	return true
}

// splitEdges is the code edit that puts an instruction on the edges
// into a latch (labelled latch) from the predecessors no tracked store
// reaches, when there are any (copies): their jumps to the latch
// (retarget) go to a fresh label placed just before it, and with
// jumpOver the predecessor that falls into the latch after a tracked
// store jumps over the new block.  The latch keeps its one back edge,
// and the fetch unit executes the jumps, so the split costs no cycle.
type splitEdges struct {
	latch    string
	retarget []*rtl.Instr
	copies   bool
	jumpOver bool
}

// insert places ins on the split edges.
func (s splitEdges) insert(f *rtl.Func, ins *rtl.Instr) {
	if !s.copies {
		return
	}
	ins.Note = "carry recurrence value, not stored"
	label := freshLabel(f, "LC")
	for _, j := range s.retarget {
		j.Target = label
	}
	seq := []*rtl.Instr{rtl.NewLabel(label), ins}
	if s.jumpOver {
		seq = append([]*rtl.Instr{rtl.NewJump(s.latch)}, seq...)
	}
	f.Insert(f.FindLabel(s.latch), seq...)
}

// buildLinExpr reconstructs cee*iv + bases + off as an expression for
// the end of the loop's preheader, appending any helper instructions to
// seq (they are inserted together with the loads).  A symbolic base
// reuses a register that holds it there: one noteSymbolReg recorded
// that the function defines nowhere else.
func buildLinExpr(ctx *loopCtx, seq *[]*rtl.Instr, lin linform, iv rtl.Reg, off int64, class rtl.Class) rtl.Expr {
	f := ctx.f
	var e rtl.Expr
	if lin.cee != 0 {
		e = ivTerm(rtl.RX(iv), lin.cee)
	}
	for _, b := range lin.base {
		var term rtl.Expr
		if s, ok := ctx.symRegs[b]; ok && definedOnce(f, s.reg) {
			term = rtl.RX(s.reg)
		} else if b[0] == '_' {
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

// definedOnce reports whether r has exactly one definition in f.
func definedOnce(f *rtl.Func, r rtl.Reg) bool {
	n := 0
	for _, i := range f.Code {
		if d, ok := i.Def(); ok && d == r {
			n++
		}
	}
	return n == 1
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
