package opt

import (
	"maps"
	"slices"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// An infinite stream (step 2i) starts in its loop's preheader, but two
// rules start it earlier, where that is safe.  Quicksort's scans
//
//	while (a[i] < pivot) i++;
//	while (a[j] > pivot) j--;
//
// are the shape.  Loop rotation leaves each scan's first read as a
// scalar load in the guard G that jumps around the loop, so the stream
// waits a memory latency for the guard before it is even issued.
//
// The guard fold (guardLoad, applied by streamLoopInfinite) issues the
// stream from that guard load's element instead, so the guard's compare
// dequeues the stream's first element and the loop the rest.  It
// applies to a read after the increment, whose stream starts one stride
// past the element the guard loads, when G alone enters the preheader
// and its conditional jump goes to one of the loop's exit targets: the
// stream stop placed there for the loop covers the guard's exit too.
// Between the load and the loop nothing may store, call, touch the
// stream's FIFO or redefine a register of the address.
//
// The early start (startEarly, after the loop sweep) then moves an
// infinite stream-in, with its base, up the dominator tree to the
// earliest block H from which every path reaches it, inside the same
// loops, past code that stores nothing, calls nothing, keeps the base's
// registers and leaves the stream's FIFO alone.  When that code uses
// the FIFO (quicksort's j stream passes the i scan, whose stream and
// stop take r0), the stream moves to the class's other FIFO, provided
// nothing else uses that one while the stream runs.

// guardLoad returns the load in the rotation guard of the loop that
// reads the element one stride before the first of r's stream, and its
// dequeue, for the guard fold; ld is nil when there is none.  fifoN is
// the FIFO r streams on.
func guardLoad(ctx *loopCtx, r *memRef, fifoN int) (ld, deq *rtl.Instr) {
	f, g, l := ctx.f, ctx.g, ctx.loop
	pre := l.Preheader
	if len(pre.Preds) != 1 {
		return nil, nil
	}
	gb := pre.Preds[0]
	jmp := f.Code[gb.End-1]
	if gb.End != pre.Start || jmp.Kind != rtl.KCondJump ||
		!slices.Contains(l.ExitTargets, g.LabelBlock(jmp.Target)) {
		return nil, nil
	}
	// The fetch unit stops the stream at the exit target only after
	// the jump, so the guard's one compare must run after the dequeue,
	// on the same in-order unit.
	cmp := -1
	for n := gb.Start; n < gb.End; n++ {
		if i := f.Code[n]; i.IsCompare() && i.Dst.Class == jmp.CCClass {
			if cmp >= 0 {
				return nil, nil
			}
			cmp = n
		}
	}
	fifo := rtl.Reg{Class: r.class, N: fifoN}
	for n := gb.Start; n < cmp; n++ {
		i := f.Code[n]
		if i.Kind != rtl.KLoad || i.MemClass != r.class || i.MemSize != r.size {
			continue
		}
		d := ctx.findDequeue(gb, n, i)
		if d < 0 || d > cmp || f.Code[d].Kind != rtl.KAssign || f.Code[d].Dst.Class != jmp.CCClass {
			continue
		}
		// Before the load, the FIFO must hold nothing the stream's
		// first element could be taken for.
		pending := func(k int) bool {
			j := f.Code[k]
			switch {
			case j.Kind == rtl.KLoad:
				if dk := ctx.findDequeue(gb, k, j); usesFIFO(j, fifo) && (dk < 0 || dk > n) {
					return true
				}
			case j.Kind == rtl.KStreamIn || j.Kind == rtl.KStreamOut || j.Kind == rtl.KJumpNotDone:
				return j.FIFO == fifo
			}
			return false
		}
		if !allIn(gb.Start, n, func(k int) bool { return !pending(k) }) {
			continue
		}
		addr, ok := blockExpr(f, gb, n, i.Addr, ctx.isIV)
		if !ok {
			continue
		}
		// The guard's element in the loop's terms: the read's linear
		// form at the induction variable's value on entry.  Linearizing
		// may note symbol registers, which must not leak into the
		// stream bases built after this check.
		saved := maps.Clone(ctx.symRegs)
		lin := ctx.linearize(addr, n, 0)
		ctx.symRegs = saved
		if !sameLin(lin, r.lin) {
			continue
		}
		regs := exprRegs(addr)
		own := rtl.Reg{Class: r.class, N: i.FIFO.N}
		quiet := func(k int) bool {
			j := f.Code[k]
			return k == d || !writesMemory(j) && !redefinesAny(j, regs) && !usesFIFO(j, fifo) && !usesFIFO(j, own)
		}
		if allIn(n+1, gb.End, quiet) && allIn(pre.Start, pre.End, quiet) {
			return i, f.Code[d]
		}
	}
	return nil, nil
}

// foldGuard replaces the guard's load ld with start, which starts the
// stream from ld's address, and moves ld's dequeue deq to the stream's
// FIFO.
func foldGuard(f *rtl.Func, ld, deq *rtl.Instr, start []*rtl.Instr) {
	retarget(deq, rtl.Reg{Class: ld.MemClass, N: ld.FIFO.N}, start[len(start)-1].FIFO)
	at := slices.Index(f.Code, ld)
	f.Remove(at)
	f.Insert(at, start...)
}

// startStreamsEarly applies the early start to every infinite
// stream-in of f, in code order, and reports whether it moved one.
func startStreamsEarly(f *rtl.Func) (bool, error) {
	var sins []*rtl.Instr
	for _, i := range f.Code {
		if i.Kind == rtl.KStreamIn && infinite(i) {
			sins = append(sins, i)
		}
	}
	// The graph is rebuilt only after a move changed the code.
	changed, stale := false, true
	var g *cfg.Graph
	var loops []*cfg.Loop
	for _, si := range sins {
		if stale {
			var err error
			if g, err = cfg.Build(f); err != nil {
				return changed, err
			}
			g.Dominators()
			loops = g.NaturalLoops()
		}
		stale = startEarly(f, g, loops, si)
		changed = changed || stale
	}
	return changed, nil
}

func infinite(si *rtl.Instr) bool {
	c, ok := si.Count.(rtl.Imm)
	return ok && c.V < 0
}

// startEarly moves the infinite stream-in si, with its base, to the
// earliest block H it may start in, and reports whether it moved it.
// H dominates si's block S, lies in the same loops, and every path
// from it reaches S; the code in between (H's after the insertion
// point, the blocks on the paths, S's before si) must not store, call
// or redefine the base's registers, and must touch fewer registers of
// the stream's class than the allocator's pool holds.  The stream keeps its FIFO when
// that code leaves the FIFO alone, and otherwise takes the other one
// of its class, provided neither that code nor the stream's own run
// (streamReach) uses it and each of the stream's stops is entered only
// from that run.
func startEarly(f *rtl.Func, g *cfg.Graph, loops []*cfg.Loop, si *rtl.Instr) bool {
	at := slices.Index(f.Code, si)
	s := g.BlockOf(at)
	if _, ok := si.Stride.(rtl.Imm); !ok {
		return false
	}
	base, ok := blockExpr(f, s, at, si.Base, nil)
	if !ok {
		return false
	}
	regs := exprRegs(base)

	cur := si.FIFO
	other := rtl.Reg{Class: cur.Class, N: rtl.FIFO0 + rtl.FIFO1 - cur.N}
	runBlocks := map[*cfg.Block]bool{}
	var run, stops []int
	streamReach(g, at, cur, func(n int) {
		runBlocks[g.BlockOf(n)] = true
		run = append(run, n)
		if i := f.Code[n]; i.Kind == rtl.KStreamStop && i.FIFO == cur {
			stops = append(stops, n)
		}
	})
	otherFree := !slices.ContainsFunc(run, func(n int) bool { return usesFIFO(f.Code[n], other) })
	for _, n := range stops {
		for _, p := range g.BlockOf(n).Preds {
			otherFree = otherFree && runBlocks[p]
		}
	}
	// fifoFor returns the FIFO the stream may take across the code at
	// the indices span.
	fifoFor := func(span []int) (rtl.Reg, bool) {
		uses := func(fifo rtl.Reg) bool {
			return slices.ContainsFunc(span, func(n int) bool { return usesFIFO(f.Code[n], fifo) })
		}
		switch {
		case !uses(cur):
			return cur, true
		case otherFree && !uses(other):
			return other, true
		}
		return rtl.Reg{}, false
	}

	var h *cfg.Block
	var hAt int
	var fifo rtl.Reg
	for c := g.Idom(s); c != nil && c != s && sameLoops(loops, c, s); c = g.Idom(c) {
		// After the last definition of a base register and the last
		// stream-in of c, so an earlier stream keeps its place.
		p := c.Start
		for n := c.Start; n < c.End; n++ {
			if i := f.Code[n]; i.Kind == rtl.KLabel || i.Kind == rtl.KStreamIn || redefinesAny(i, regs) {
				p = n + 1
			}
		}
		paths, ok := pathBlocks(c, s)
		if !ok {
			break
		}
		var span []int
		for n := p; n < c.End; n++ {
			span = append(span, n)
		}
		for b := range paths {
			for n := b.Start; n < b.End; n++ {
				span = append(span, n)
			}
		}
		for n := s.Start; n < at; n++ {
			span = append(span, n)
		}
		if slices.ContainsFunc(span, func(n int) bool {
			return writesMemory(f.Code[n]) || redefinesAny(f.Code[n], regs)
		}) {
			break
		}
		// Where another stream holds the other FIFO, a spill has no FIFO
		// left, so the allocator must keep every register this code
		// touches in its pool (pinnedRegs, regalloc.go).
		var touched cfg.RegSet
		note := func(r rtl.Reg) {
			if r.IsVirtual() && r.Class == cur.Class {
				touched.Add(r)
			}
		}
		for _, n := range span {
			cfg.InstrUses(f.Code[n], note)
			cfg.InstrDefs(f.Code[n], note)
		}
		if touched.Len() >= len(pools[cur.Class]) {
			break
		}
		ff, ok := fifoFor(span)
		if !ok {
			break
		}
		h, hAt, fifo = c, p, ff
		if g.Idom(c) == c {
			break
		}
	}
	if h == nil {
		return false
	}
	if fifo != cur {
		for _, n := range run {
			f.Code[n].MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.SubstReg(e, cur, rtl.RX(fifo)) })
		}
		for _, n := range stops {
			f.Code[n].FIFO = fifo
		}
	}
	nb := f.NewVirt(rtl.Int)
	ba := rtl.NewAssign(nb, base)
	ba.Note = "stream base"
	moved := si.Clone()
	moved.FIFO, moved.Base = fifo, rtl.RX(nb)
	moved.Note += ", started early"
	f.Remove(at)
	if at < hAt {
		hAt--
	}
	f.Insert(hAt, ba, moved)
	return true
}

// streamReach calls visit for the index of every instruction that can
// run while the stream started at index at feeds fifo: those reachable
// from it without passing a stop of fifo, the stream-in and the stops
// included.
func streamReach(g *cfg.Graph, at int, fifo rtl.Reg, visit func(n int)) {
	f := g.F
	visit(at)
	scanned := map[*cfg.Block]bool{}
	var scan func(b *cfg.Block, from int)
	scan = func(b *cfg.Block, from int) {
		for n := from; n < b.End; n++ {
			visit(n)
			if i := f.Code[n]; i.Kind == rtl.KStreamStop && i.FIFO == fifo {
				return
			}
		}
		for _, s := range b.Succs {
			if !scanned[s] {
				scanned[s] = true
				scan(s, s.Start)
			}
		}
	}
	scan(g.BlockOf(at), at+1)
}

// pathBlocks returns the blocks on the paths from h to s, h and s
// excluded; ok is false when such a path can avoid s: it ends the
// function or comes back to h first.
func pathBlocks(h, s *cfg.Block) (map[*cfg.Block]bool, bool) {
	seen := map[*cfg.Block]bool{}
	stack := slices.Clone(h.Succs)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == s || seen[b] {
			continue
		}
		if b == h || len(b.Succs) == 0 {
			return nil, false
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen, true
}

// sameLoops reports whether a and b lie in the same loops.
func sameLoops(loops []*cfg.Loop, a, b *cfg.Block) bool {
	return !slices.ContainsFunc(loops, func(l *cfg.Loop) bool { return l.Blocks[a] != l.Blocks[b] })
}

// blockExpr rewrites e, read at index at of block b, in terms of
// registers that hold at index at the values its reads see: a register
// defined earlier in b is replaced by its last definition before the
// read, unless keep says to keep it and the definition reaches at.  ok
// is false when e reads a FIFO, a definition it would substitute has
// side effects, or a register it keeps is redefined before at.
func blockExpr(f *rtl.Func, b *cfg.Block, at int, e rtl.Expr, keep func(rtl.Reg) bool) (rtl.Expr, bool) {
	ok := true
	lastDef := func(r rtl.Reg, lo, hi int) int {
		for k := hi - 1; k >= lo; k-- {
			if redefines(f.Code[k], r) {
				return k
			}
		}
		return -1
	}
	var expand func(e rtl.Expr, from, depth int) rtl.Expr
	expand = func(e rtl.Expr, from, depth int) rtl.Expr {
		for _, r := range exprRegs(e) {
			k := lastDef(r, b.Start, from)
			switch {
			case r.IsFIFO() || depth > 8:
				ok = false
			case k < 0 || keep != nil && keep(r) && lastDef(r, from, at) < 0:
				ok = ok && lastDef(r, from, at) < 0
			case f.Code[k].Kind != rtl.KAssign || f.Code[k].HasSideEffects():
				ok = false
			default:
				e = rtl.SubstReg(e, r, expand(f.Code[k].Src, k, depth+1))
			}
		}
		return e
	}
	e = expand(e, at, 0)
	return e, ok
}

// exprRegs returns the registers e reads, each once.
func exprRegs(e rtl.Expr) []rtl.Reg {
	var regs []rtl.Reg
	rtl.ExprRegs(e, func(r rtl.Reg) {
		if !slices.Contains(regs, r) {
			regs = append(regs, r)
		}
	})
	return regs
}

// writesMemory reports whether the instruction may write memory: a
// store, a stream-out or a call.
func writesMemory(i *rtl.Instr) bool {
	switch i.Kind {
	case rtl.KStore, rtl.KStreamOut, rtl.KCall:
		return true
	}
	return false
}

// redefinesAny reports whether the instruction writes one of regs.
func redefinesAny(i *rtl.Instr, regs []rtl.Reg) bool {
	return slices.ContainsFunc(regs, func(r rtl.Reg) bool { return redefines(i, r) })
}

// usesFIFO reports whether the instruction touches the input FIFO
// fifo: a read of it, a load into it, or a stream instruction on it.
func usesFIFO(i *rtl.Instr, fifo rtl.Reg) bool {
	switch i.Kind {
	case rtl.KLoad:
		if i.MemClass == fifo.Class && i.FIFO.N == fifo.N {
			return true
		}
	case rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop, rtl.KJumpNotDone:
		if i.FIFO == fifo {
			return true
		}
	}
	return slices.Contains(i.Uses(nil), fifo)
}

// allIn reports whether ok holds for every index in [lo, hi).
func allIn(lo, hi int, ok func(n int) bool) bool {
	for n := lo; n < hi; n++ {
		if !ok(n) {
			return false
		}
	}
	return true
}
