package cfg

import "wmstream/internal/rtl"

// trackable reports whether liveness tracks the register.  The zero
// registers read as constants and FIFO registers have queue semantics
// (their "value" lives in hardware queues, not in the cell), so neither
// participates in register liveness.
func trackable(r rtl.Reg) bool { return !r.IsZero() && !r.IsFIFO() }

// InstrUses calls fn for every trackable register the instruction
// reads, including the implicit reads of calls and returns.
func InstrUses(i *rtl.Instr, fn func(rtl.Reg)) {
	switch i.Kind {
	case rtl.KCall:
		for _, r := range i.Args {
			if trackable(r) {
				fn(r)
			}
		}
		fn(rtl.RegSP)
	case rtl.KRet:
		// The ABI returns results in r2/f2; without per-function result
		// annotations at every return we conservatively treat both as
		// read, plus the link register and stack pointer.
		fn(rtl.R(rtl.ResultReg))
		fn(rtl.F(rtl.ResultReg))
		fn(rtl.RegLR)
		fn(rtl.RegSP)
	default:
		i.EachUseExpr(func(e rtl.Expr) {
			rtl.ExprRegs(e, func(r rtl.Reg) {
				if trackable(r) {
					fn(r)
				}
			})
		})
	}
}

// InstrDefs calls fn for every trackable register the instruction
// writes.  Calls clobber every caller-saved register.
func InstrDefs(i *rtl.Instr, fn func(rtl.Reg)) {
	switch i.Kind {
	case rtl.KCall:
		rtl.CallClobbers(func(r rtl.Reg) {
			if trackable(r) {
				fn(r)
			}
		})
	case rtl.KAssign:
		if trackable(i.Dst) {
			fn(i.Dst)
		}
	}
}

// Liveness computes LiveIn/LiveOut for every block with the standard
// backward iterative data-flow algorithm, on bit sets sized once for
// the whole function.  Blocks unreachable from the entry keep empty
// sets.
func (g *Graph) Liveness() {
	f := g.F
	// Every set gets the same number of words: enough for the
	// function's virtual registers, or more if a block names a higher
	// register than the counters record.
	nw := (2*(rtl.VirtualBase+max(f.NumVirt(rtl.Int), f.NumVirt(rtl.Float))) + 63) >> 6
	n := len(g.Blocks)
	slab := make([]uint64, 2*n*nw)
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	for _, b := range g.Blocks {
		u, d := carve(&slab, nw), carve(&slab, nw)
		for _, i := range b.Instrs(f) {
			InstrUses(i, func(r rtl.Reg) {
				if !d.Has(r) {
					u.Add(r)
				}
			})
			InstrDefs(i, func(r rtl.Reg) { d.Add(r) })
		}
		use[b.Index], def[b.Index] = u, d
		nw = max(nw, len(u.w), len(d.w))
	}
	slab = make([]uint64, (2*n+1)*nw)
	for _, b := range g.Blocks {
		b.LiveIn, b.LiveOut = carve(&slab, nw), carve(&slab, nw)
		use[b.Index].grow(nw)
		def[b.Index].grow(nw)
	}
	out := carve(&slab, nw).w
	// Backward over reverse postorder is fastest; correctness does not
	// depend on order.
	order := g.ReversePostorder()
	for changed := true; changed; {
		changed = false
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			clear(out)
			for _, s := range b.Succs {
				for j, x := range s.LiveIn.w {
					out[j] |= x
				}
			}
			u, d := use[b.Index].w, def[b.Index].w
			in, oldOut := b.LiveIn.w, b.LiveOut.w
			for j, x := range out {
				if y := u[j] | x&^d[j]; y != in[j] || x != oldOut[j] {
					in[j], oldOut[j] = y, x
					changed = true
				}
			}
		}
	}
}

// LiveAtEach walks block b backward and calls fn for every instruction
// with the set of registers live immediately *after* it.  Liveness must
// have been computed.  The set passed to fn is reused between calls;
// clone it to retain.
func (g *Graph) LiveAtEach(b *Block, fn func(idx int, i *rtl.Instr, liveAfter RegSet)) {
	live := b.LiveOut.Clone()
	for n := b.End - 1; n >= b.Start; n-- {
		i := g.F.Code[n]
		fn(n, i, live)
		InstrDefs(i, func(r rtl.Reg) { live.Remove(r) })
		InstrUses(i, func(r rtl.Reg) { live.Add(r) })
	}
}
