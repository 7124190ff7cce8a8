package opt

import (
	"slices"
	"sort"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// LICM hoists loop-invariant assignments into loop preheaders.  It is
// the "code motion" phase the paper requires to run before recurrence
// detection: it moves the llh/sll address materializations of global
// arrays out of the loop (Figure 4 lines 4-9).  Loops are visited
// innermost first, so invariants bubble outward.
func LICM(f *rtl.Func) (bool, error) {
	return walkLoops(f, "LICM", true, hoistLoop)
}

// hoistLoop makes one visit's worth of code motion in l.  Its moves are
// those of moving one instruction per fresh analysis, each time the
// first in code order of: a load/dequeue pair, else a reused load, else
// an assignment.  One analysis yields every load pair it licenses; then
// a reused load, or else the first assignment, the load pairs its
// destination makes movable, the next assignment, and so on while the
// analysis stays exact (licm.stale).  The moved instructions reach the
// end of the preheader in that order.
func hoistLoop(w *loopWalk, l *cfg.Loop) bool {
	ctx := analyzeLoop(w, l)
	if ctx.hdrLabelIdx < 0 {
		return false
	}
	reuse, y := reusableLoad(ctx)
	m := newLICM(w, ctx)
	for _, n := range m.loads {
		if m.loadMoves(n) {
			m.take(n, 2)
		}
	}
	switch {
	case reuse != nil && len(m.moves) == 0:
		fifo := rtl.Reg{Class: reuse.class, N: ctx.f.Code[reuse.accIdx].FIFO.N}
		ctx.f.Code[reuse.dataIdx].MapExprs(func(x rtl.Expr) rtl.Expr { return rtl.SubstReg(x, fifo, rtl.RX(y)) })
		ctx.f.Remove(reuse.accIdx)
		return true
	case reuse == nil && !m.stale():
		m.assigns()
	}
	if len(m.moves) == 0 {
		return false
	}
	m.apply()
	return true
}

// licm collects one visit's moves.  Instructions it takes stay in
// place until apply; meanwhile the registers they define count as
// invariant (loopCtx.hoisted), defined at the end of the preheader.
type licm struct {
	w     *loopWalk
	ctx   *loopCtx
	moves [][]*rtl.Instr // in the order they move
	taken map[int]bool
	// registers and loads taken since the last stale check
	fresh      []rtl.Reg
	freshLoads []int
	loads      []int // the loop's loads, in code order
	refs       map[int]*memRef
	stores     []*memRef
}

func newLICM(w *loopWalk, ctx *loopCtx) *licm {
	m := &licm{w: w, ctx: ctx, taken: map[int]bool{}, refs: map[int]*memRef{}}
	for _, b := range ctx.loop.BlockList() {
		for n := b.Start; n < b.End; n++ {
			switch i := ctx.f.Code[n]; i.Kind {
			case rtl.KLoad:
				m.loads = append(m.loads, n)
				ctx.addressRegs(i.Addr, func(r rtl.Reg) { ctx.feed(r, n) })
			case rtl.KStore:
				ctx.addressRegs(i.Addr, func(r rtl.Reg) { ctx.feed(r, -1) })
			}
		}
	}
	m.stores = ctx.storeRefs()
	return m
}

// take records the move of the size instructions at index n, the last
// of which defines a register.
func (m *licm) take(n, size int) {
	f := m.ctx.f
	for k := n; k < n+size; k++ {
		m.taken[k] = true
	}
	m.moves = append(m.moves, f.Code[n:n+size])
	def := f.Code[n+size-1]
	d := def.Dst
	m.ctx.hoist(d, def)
	m.fresh = append(m.fresh, d)
	if size == 2 {
		m.freshLoads = append(m.freshLoads, n)
	}
	for _, k := range m.ctx.feeds.Get(d) {
		delete(m.refs, k) // its address reads differently now
	}
	if m.ctx.storeFeed.Get(d) {
		m.stores = m.ctx.storeRefs() // and so may a store's
	}
}

// ref describes the load at index n, as a fresh analysis would.
func (m *licm) ref(n int) *memRef {
	if m.refs[n] == nil {
		m.refs[n] = m.ctx.loadRef(n)
	}
	return m.refs[n]
}

// apply moves the taken instructions to the end of the preheader, just
// before the header label.
func (m *licm) apply() {
	code := make([]*rtl.Instr, 0, len(m.ctx.f.Code))
	for n, i := range m.ctx.f.Code {
		if n == m.ctx.hdrLabelIdx {
			for _, mv := range m.moves {
				code = append(code, mv...)
			}
		}
		if !m.taken[n] {
			code = append(code, i)
		}
	}
	m.ctx.f.Code = code
}

// hoistable reports whether the in-loop definition of d may move to the
// preheader: it is d's only definition in the loop, and nothing in the
// loop reads d's pre-loop value.  A register live into the header is
// read on some path before any definition in the loop; in the first
// iteration that read sees the pre-loop value, which a hoisted
// definition would overwrite.
func (m *licm) hoistable(d rtl.Reg) bool {
	ctx := m.ctx
	if d.IsZero() || d.IsFIFO() || ctx.defCount(d) != 1 || ctx.hasCall && !d.IsVirtual() {
		return false
	}
	m.w.liveness()
	return !ctx.loop.Header.LiveIn.Has(d)
}

// assignMoves reports whether the assignment at index n may move: an
// invariant value that cannot trap, into a hoistable register.  A
// definition on a conditional arm moves too: hoistable demands that
// nothing reads the destination's pre-loop value, so every read of it
// follows this, its only definition, and sees the same invariant value
// wherever that value is computed.  (A call overwrites the physical
// registers, so a physical destination in a loop with a call has more
// definitions than the loop's code shows.)
func (m *licm) assignMoves(n int) bool {
	i := m.ctx.f.Code[n]
	if m.taken[n] || i.Kind != rtl.KAssign || i.HasSideEffects() || !safeToSpeculate(i.Src) {
		return false
	}
	inv := true
	rtl.ExprRegs(i.Src, func(r rtl.Reg) { inv = inv && m.ctx.invariant(r) })
	return inv && m.hoistable(i.Dst)
}

// loadMoves reports whether the load at index n and its dequeue may
// move: an invariant address no store in the loop can touch, read on
// every iteration into a hoistable register.  This is what keeps
// scalar globals such as loop bounds in registers (the paper's Figure 4
// has n in r23), which the trip-count analysis of the streaming pass
// depends on.
//
// Aliasing follows the region rule (regionOf).  The load must name its
// region: only an access inside a named object is safe to execute in
// the preheader, where it may run although the loop body would not.
// Every store and stream-out of the loop must name a region too: one
// that may touch any region blocks all hoisting, as does a call.  A
// store to another region, even one whose address does not linearize
// (sieve's flags[k], indexed by an inner induction variable), does not
// block; one to the same region blocks unless both addresses are fixed
// and their bytes disjoint.  A load through a loaded register names no
// region, so moving one load never makes another movable.
func (m *licm) loadMoves(n int) bool {
	ctx := m.ctx
	f, g, l := ctx.f, ctx.g, ctx.loop
	b := g.BlockOf(n)
	if ctx.hasCall || m.taken[n] || n < ctx.hdrLabelIdx || n+1 >= b.End || !dominatesAllLatches(g, l, b) {
		return false
	}
	ld, deq := f.Code[n], f.Code[n+1]
	rx, isReg := deq.Src.(rtl.RegX)
	if deq.Kind != rtl.KAssign || !isReg || rx.Reg != (rtl.Reg{Class: ld.MemClass, N: ld.FIFO.N}) {
		return false
	}
	inv := true
	rtl.ExprRegs(ld.Addr, func(r rtl.Reg) { inv = inv && ctx.invariant(r) })
	if !inv || m.ref(n).region == "" {
		return false
	}
	for _, st := range m.stores {
		if st.region == "" || mayAlias(st, m.ref(n)) {
			return false
		}
	}
	return m.hoistable(deq.Dst)
}

// assigns takes the first movable assignment in code order and the load
// pairs its destination makes movable, and repeats while the analysis
// stays exact.
func (m *licm) assigns() {
	for {
		n := m.firstAssign()
		if n < 0 {
			return
		}
		m.take(n, 1)
		for _, k := range m.ctx.feeds.Get(m.ctx.f.Code[n].Dst) {
			if m.loadMoves(k) {
				m.take(k, 2)
			}
		}
		if m.stale() {
			return
		}
	}
}

// firstAssign returns the index of the first movable assignment in
// code order, or -1.
func (m *licm) firstAssign() int {
	for _, b := range m.ctx.loop.BlockList() {
		for n := b.Start; n < b.End; n++ {
			if m.assignMoves(n) {
				return n
			}
		}
	}
	return -1
}

// stale reports whether moving the registers and loads taken since the
// last call may have changed what a fresh analysis says about a load
// that stays at a fixed address: it may have become movable, or
// reusable from a preheader load, and either goes before the next
// assignment.  That takes a taken register feeding its address or a
// store's (the alias tests), or a taken load reading its region.  A
// load at a varying address can be reused only from a register loaded
// in the loop, which never moves, so when that happens does not change
// the moves.
func (m *licm) stale() bool {
	regs, loaded := m.fresh, m.freshLoads
	m.fresh, m.freshLoads = nil, nil
	for _, k := range m.loads {
		r := m.ref(k)
		if m.taken[k] || !r.lin.ok || r.lin.hasIV() {
			continue
		}
		for _, d := range regs {
			if m.ctx.storeFeed.Get(d) || slices.Contains(m.ctx.feeds.Get(d), k) {
				return true
			}
		}
		for _, j := range loaded {
			if r.region != "" && r.region == m.ref(j).region {
				return true
			}
		}
	}
	return false
}

// reusableLoad returns a load whose value a register already holds, and
// that register, or nil.  The register comes from a load or store of
// the same address in a block that dominates the load's in the same
// iteration, or from a load hoisted to the end of the preheader.  No
// store that may touch the address may run in between, and neither the
// register nor the address may change.  LICM then deletes the load and
// makes its dequeue read the register.
//
// Only a load behind a branch is replaced.  Within a block the access
// unit issues loads ahead of the execute units, so a reload costs them
// nothing, while reusing a register would keep the first value out of
// the FIFO in a copy the execute unit must run (whetstone's module 2
// measured 4% slower).  Behind a branch the load cannot issue before
// the compare resolves, and its latency lands on the execute unit:
// bubblesort's swap path and sieve's conditional reloads of n.
func reusableLoad(ctx *loopCtx) (*memRef, rtl.Reg) {
	if ctx.hasCall || ctx.stream {
		return nil, rtl.Reg{}
	}
	refs, ok := ctx.collectRefs()
	if !ok {
		return nil, rtl.Reg{}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].accIdx < refs[j].accIdx })
	for _, ld := range refs {
		if ld.write || !ld.lin.ok {
			continue
		}
		y, ok := ctx.preheaderValue(ld, refs)
		for k := len(refs) - 1; k >= 0 && !ok; k-- {
			y, ok = ctx.iterationValue(refs[k], ld, refs)
		}
		if ok {
			return ld, y
		}
	}
	return nil, rtl.Reg{}
}

// iterationValue returns the register holding the value the load ld
// reads when the reference p, earlier in the same iteration, accessed
// the same address.
func (ctx *loopCtx) iterationValue(p, ld *memRef, refs []*memRef) (rtl.Reg, bool) {
	var y rtl.Reg
	pb, lb := ctx.g.BlockOf(p.accIdx), ctx.g.BlockOf(ld.accIdx)
	if p == ld || pb == lb || !sameAddress(p, ld) || !ctx.g.Dominates(pb, lb) {
		return y, false
	}
	data := ctx.f.Code[p.dataIdx]
	if p.write {
		// A stored value stands for the reloaded one only when the
		// store keeps every bit: not through a char.
		rx, isReg := data.Src.(rtl.RegX)
		if !isReg || rx.Reg.IsFIFO() || rx.Reg.IsZero() || !fullWidth(p) {
			return y, false
		}
		y = rx.Reg
	} else {
		rx, isReg := data.Src.(rtl.RegX)
		if data.Kind != rtl.KAssign || !isReg || !rx.Reg.IsFIFO() || data.Dst.IsFIFO() || data.Dst.IsZero() {
			return y, false
		}
		y = data.Dst
	}
	if y.Class != ld.class {
		return y, false
	}
	from := min(p.accIdx, p.dataIdx)
	noStore := ctx.between(from, ld.accIdx, func(n int) bool {
		return n == p.accIdx || ctx.f.Code[n].Kind != rtl.KStore || !mayAlias(refAt(refs, n), ld)
	})
	unchanged := ctx.between(from, ld.dataIdx, func(n int) bool {
		d, ok := ctx.f.Code[n].Def()
		return !ok || (d != y || n == p.dataIdx) && (!ld.lin.hasIV() || d != ld.lin.iv)
	})
	return y, noStore && unchanged
}

// preheaderValue returns the register a load of the same fixed address
// left at the end of the preheader, when no store in the loop may
// touch that address.
func (ctx *loopCtx) preheaderValue(ld *memRef, refs []*memRef) (rtl.Reg, bool) {
	pre := ctx.loop.Preheader
	if pre == nil || ld.lin.hasIV() {
		return rtl.Reg{}, false
	}
	for _, r := range refs {
		if r.write && mayAlias(r, ld) {
			return rtl.Reg{}, false
		}
	}
	var defsAfter []rtl.Reg // definitions after n, one entry each
	for n := pre.End - 1; n >= pre.Start; n-- {
		i := ctx.f.Code[n]
		switch i.Kind {
		case rtl.KStore, rtl.KStreamOut, rtl.KCall:
			return rtl.Reg{}, false
		case rtl.KLoad:
			if n+1 >= pre.End || i.MemSize != ld.size || i.MemClass != ld.class {
				break
			}
			deq := ctx.f.Code[n+1]
			rx, isReg := deq.Src.(rtl.RegX)
			y := deq.Dst
			if deq.Kind != rtl.KAssign || !isReg || rx.Reg != (rtl.Reg{Class: i.MemClass, N: i.FIFO.N}) ||
				y.IsFIFO() || y.IsZero() || y.Class != ld.class || ctx.defCount(y) != 0 || count(defsAfter, y) != 1 {
				break
			}
			moved := false
			rtl.ExprRegs(i.Addr, func(r rtl.Reg) { moved = moved || slices.Contains(defsAfter, r) })
			if !moved && sameLin(ctx.linearize(i.Addr, n, 0), ld.lin) {
				return y, true
			}
		}
		if d, ok := i.Def(); ok {
			defsAfter = append(defsAfter, d)
		}
	}
	return rtl.Reg{}, false
}

// between calls visit for every instruction that can run after index
// from and before index to in one iteration, where from's block
// dominates to's (or both share a block, from first).  It stops and
// returns false as soon as visit does.
func (ctx *loopCtx) between(from, to int, visit func(n int) bool) bool {
	g, l := ctx.g, ctx.loop
	fb, tb := g.BlockOf(from), g.BlockOf(to)
	if fb == tb {
		for n := from + 1; n < to; n++ {
			if !visit(n) {
				return false
			}
		}
		return true
	}
	for n := from + 1; n < fb.End; n++ {
		if !visit(n) {
			return false
		}
	}
	for n := tb.Start; n < to; n++ {
		if !visit(n) {
			return false
		}
	}
	// Whole blocks on a path from fb to tb.  Re-entering fb would run
	// the earlier access again, and the header starts a new iteration.
	reach := func(start []*cfg.Block, next func(*cfg.Block) []*cfg.Block) map[*cfg.Block]bool {
		seen := map[*cfg.Block]bool{}
		stack := append([]*cfg.Block(nil), start...)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[b] || b == fb || b == l.Header || !l.Blocks[b] {
				continue
			}
			seen[b] = true
			stack = append(stack, next(b)...)
		}
		return seen
	}
	fwd := reach(fb.Succs, func(b *cfg.Block) []*cfg.Block { return b.Succs })
	bwd := reach(tb.Preds, func(b *cfg.Block) []*cfg.Block { return b.Preds })
	for _, b := range l.BlockList() {
		if !fwd[b] || !bwd[b] {
			continue
		}
		for n := b.Start; n < b.End; n++ {
			if !visit(n) {
				return false
			}
		}
	}
	return true
}

// addressRegs calls fn once for each register that feeds the address
// e: one it reads, and those read by the register's definitions in the
// loop, transitively.
func (ctx *loopCtx) addressRegs(e rtl.Expr, fn func(rtl.Reg)) {
	var seen []rtl.Reg
	var walk func(r rtl.Reg)
	walk = func(r rtl.Reg) {
		if slices.Contains(seen, r) {
			return
		}
		seen = append(seen, r)
		fn(r)
		for _, n := range ctx.defIdx.Get(r) {
			for _, u := range ctx.f.Code[n].Uses(nil) {
				walk(u)
			}
		}
	}
	rtl.ExprRegs(e, walk)
}

// count returns how many times r occurs in rs.
func count(rs []rtl.Reg, r rtl.Reg) int {
	n := 0
	for _, x := range rs {
		if x == r {
			n++
		}
	}
	return n
}

// storeRefs returns the loop's stores and stream-outs with their
// regions; a stream-out's address is its base, and it has no linear
// form since it covers a range.
func (ctx *loopCtx) storeRefs() []*memRef {
	var out []*memRef
	for _, b := range ctx.loop.BlockList() {
		for n := b.Start; n < b.End; n++ {
			i := ctx.f.Code[n]
			switch i.Kind {
			case rtl.KStore:
				lin := ctx.linearize(i.Addr, n, 0)
				out = append(out, &memRef{accIdx: n, write: true, lin: lin, size: i.MemSize, class: i.MemClass,
					region: ctx.regionOf(i.Addr, lin)})
			case rtl.KStreamOut:
				out = append(out, &memRef{accIdx: n, write: true, size: i.MemSize, class: i.MemClass,
					region: ctx.regionOf(i.Base, ctx.linearize(i.Base, n, 0))})
			}
		}
	}
	return out
}

// loadRef describes the load at index n for alias queries.
func (ctx *loopCtx) loadRef(n int) *memRef {
	i := ctx.f.Code[n]
	lin := ctx.linearize(i.Addr, n, 0)
	return &memRef{accIdx: n, lin: lin, size: i.MemSize, class: i.MemClass, region: ctx.regionOf(i.Addr, lin)}
}

// mayAlias reports whether two references may touch a common byte.
// References to different named regions never do.  Two references
// with the same induction term and base differ by their constant
// offsets, so their bytes overlap only if the offset ranges do; the
// caller guarantees that the induction variable has the same value at
// both (no induction variable, or none of its increments in between).
func mayAlias(a, b *memRef) bool {
	if a.region != "" && b.region != "" && a.region != b.region {
		return false
	}
	if a.lin.ok && b.lin.ok && a.lin.iv == b.lin.iv && a.lin.cee == b.lin.cee && a.lin.baseKey() == b.lin.baseKey() {
		return a.lin.off < b.lin.off+int64(b.size) && b.lin.off < a.lin.off+int64(a.size)
	}
	return true
}

// sameAddress reports whether two references read or write exactly the
// same bytes, at the same values of the induction variable.
func sameAddress(a, b *memRef) bool {
	return sameLin(a.lin, b.lin) && a.size == b.size && a.class == b.class
}

func sameLin(a, b linform) bool {
	return a.ok && b.ok && a.iv == b.iv && a.cee == b.cee && a.off == b.off && a.baseKey() == b.baseKey()
}

// fullWidth reports whether a store keeps every bit of the register it
// writes: 8 bytes, or a 4-byte int (C leaves int overflow undefined,
// which the recurrence pass relies on as well).
func fullWidth(r *memRef) bool {
	return r.size == 8 || (r.class == rtl.Int && r.size == 4)
}

// refAt returns the reference whose access instruction is at index n;
// an uncollected one has no region and may alias anything.
func refAt(refs []*memRef, n int) *memRef {
	for _, r := range refs {
		if r.accIdx == n {
			return r
		}
	}
	return &memRef{}
}

// safeToSpeculate reports whether evaluating e cannot trap: division by
// a non-constant is excluded.
func safeToSpeculate(e rtl.Expr) bool {
	safe := true
	rtl.WalkExpr(e, func(x rtl.Expr) {
		if b, ok := x.(rtl.Bin); ok && (b.Op == rtl.Div || b.Op == rtl.Rem) {
			if c, isC := b.R.(rtl.Imm); !isC || c.V == 0 {
				safe = false
			}
		}
	})
	return safe
}

func dominatesAllLatches(g *cfg.Graph, l *cfg.Loop, b *cfg.Block) bool {
	for _, latch := range l.Latches {
		if !g.Dominates(b, latch) {
			return false
		}
	}
	return true
}
