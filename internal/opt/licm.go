package opt

import (
	"sort"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// LICM hoists loop-invariant assignments into loop preheaders.  It is
// the "code motion" phase the paper requires to run before recurrence
// detection: it moves the llh/sll address materializations of global
// arrays out of the loop (Figure 4 lines 4-9).
func LICM(f *rtl.Func) (bool, error) {
	changed := false
	// Innermost-first so invariants bubble outward over iterations of
	// the fixpoint driver.  Each inner round hoists one instruction.
	for round := 0; round < 500; round++ {
		more, err := licmOnce(f)
		if err != nil {
			return changed, err
		}
		if !more {
			return changed, nil
		}
		changed = true
	}
	return changed, nil
}

func licmOnce(f *rtl.Func) (bool, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Dominators()
	loops := g.NaturalLoops()
	for _, l := range loops {
		moved, err := hoistLoop(f, g, l)
		if err != nil {
			return false, err
		}
		if moved {
			return true, nil // code moved: rebuild analyses
		}
	}
	return false, nil
}

// hoistLoop reports a change when it inserted a preheader, too: the
// caller's graph no longer matches the code.
func hoistLoop(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) (bool, error) {
	inserted := l.Preheader == nil
	pre := EnsurePreheader(f, g, l)
	if pre < 0 {
		return false, nil
	}
	if inserted {
		// Re-analyze after the preheader insertion.
		var err error
		if g, err = cfg.Build(f); err != nil {
			return true, err
		}
		g.Dominators()
		if l = findLoopByHeaderLabel(g, headerLabel(f, pre)); l == nil {
			return true, nil
		}
	}

	ctx := analyzeLoop(f, g, l)
	if hoistInvariantLoads(ctx) || reuseLoads(ctx) {
		return true, nil
	}

	preInsert := preheaderInsertPos(f, pre)
	live := false // liveness computed; nothing below changes f until a hoist returns
	for _, b := range l.BlockList() {
		every := dominatesAllLatches(g, l, b)
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			if i.Kind != rtl.KAssign || i.HasSideEffects() {
				continue
			}
			// A call overwrites the physical registers (an argument
			// register holds the result), so a physical destination
			// in a loop with a call has more definitions than the
			// loop's code shows.
			d := i.Dst
			if d.IsZero() || d.IsFIFO() || ctx.defCount[d] != 1 || ctx.hasCall && !d.IsVirtual() {
				continue
			}
			if !safeToSpeculate(i.Src) {
				continue
			}
			inv := true
			rtl.ExprRegs(i.Src, func(r rtl.Reg) {
				if !ctx.invariant(r) {
					inv = false
				}
			})
			if !inv {
				continue
			}
			// The destination must not be live on entry to the loop
			// (its pre-loop value would be clobbered by hoisting).
			if !live {
				g.Liveness()
				live = true
			}
			// A definition on a conditional arm (one that does not run
			// on every iteration) moves only when nothing reads the
			// destination's pre-loop value: then every read of it
			// follows this, its only definition, and sees the same
			// invariant value wherever that value is computed.
			if l.Header.LiveIn.Has(d) && (!every || usedBeforeDefInLoop(f, g, l, d, n)) {
				continue
			}
			f.Remove(n)
			if n < preInsert {
				preInsert--
			}
			f.Insert(preInsert, i)
			return true, nil // structural change: restart analysis
		}
	}
	return inserted, nil
}

// hoistInvariantLoads moves a load/dequeue pair of an invariant
// address out of the loop when no store in the loop can touch that
// address.  This is what keeps scalar globals such as loop bounds in
// registers (the paper's Figure 4 has n in r23), which the trip-count
// analysis of the streaming pass depends on.
//
// Aliasing follows the region rule (regionOf).  The load must name its
// region: only an access inside a named object is safe to execute in
// the preheader, where it may run although the loop body would not.
// Every store and stream-out of the loop must name a region too: one
// that may touch any region blocks all hoisting, as does a call.  A
// store to another region, even one whose address does not linearize
// (sieve's flags[k], indexed by an inner induction variable), does not
// block; one to the same region blocks unless both addresses are fixed
// and their bytes disjoint.
func hoistInvariantLoads(ctx *loopCtx) bool {
	f, g, l := ctx.f, ctx.g, ctx.loop
	if ctx.hasCall {
		return false
	}
	var stores []*memRef
	scanned := false // stores are collected at the first candidate load
	for _, b := range l.BlockList() {
		if !dominatesAllLatches(g, l, b) {
			continue
		}
		for n := b.Start; n+1 < b.End; n++ {
			ld := f.Code[n]
			if ld.Kind != rtl.KLoad {
				continue
			}
			deq := f.Code[n+1]
			if deq.Kind != rtl.KAssign {
				continue
			}
			rx, isReg := deq.Src.(rtl.RegX)
			fifo := rtl.Reg{Class: ld.MemClass, N: ld.FIFO.N}
			if !isReg || rx.Reg != fifo || deq.Dst.IsFIFO() || deq.Dst.IsZero() {
				continue
			}
			if ctx.defCount[deq.Dst] != 1 {
				continue
			}
			// Invariant address?
			inv := true
			rtl.ExprRegs(ld.Addr, func(r rtl.Reg) {
				if !ctx.invariant(r) {
					inv = false
				}
			})
			if !inv {
				continue
			}
			ref := ctx.loadRef(n)
			if ref.region == "" {
				continue
			}
			if !scanned {
				scanned = true
				stores = ctx.storeRefs()
				for _, st := range stores {
					if st.region == "" {
						return false
					}
				}
			}
			if anyMayAlias(stores, ref) {
				continue
			}
			// Move the pair to the end of the preheader.
			hdr := headerLabelIndex(f, g, l)
			if hdr < 0 || hdr > n {
				continue
			}
			f.Remove(n + 1)
			f.Remove(n)
			f.Insert(hdr, ld, deq)
			return true
		}
	}
	return false
}

// reuseLoads deletes one load whose value a register already holds and
// makes its dequeue read that register.  The register comes from a
// load or store of the same address in a block that dominates the
// load's in the same iteration, or from a load hoisted to the end of
// the preheader.  No store that may touch the address may run in
// between, and neither the register nor the address may change.  It
// reports whether it changed the code.
//
// Only a load behind a branch is replaced.  Within a block the access
// unit issues loads ahead of the execute units, so a reload costs them
// nothing, while reusing a register would keep the first value out of
// the FIFO in a copy the execute unit must run (whetstone's module 2
// measured 4% slower).  Behind a branch the load cannot issue before
// the compare resolves, and its latency lands on the execute unit:
// bubblesort's swap path and sieve's conditional reloads of n.
func reuseLoads(ctx *loopCtx) bool {
	if ctx.hasCall || ctx.stream {
		return false
	}
	refs, ok := ctx.collectRefs()
	if !ok {
		return false
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
		if !ok {
			continue
		}
		fifo := rtl.Reg{Class: ld.class, N: ctx.f.Code[ld.accIdx].FIFO.N}
		deq := ctx.f.Code[ld.dataIdx]
		deq.MapExprs(func(x rtl.Expr) rtl.Expr { return rtl.SubstReg(x, fifo, rtl.RX(y)) })
		ctx.f.Remove(ld.accIdx)
		return true
	}
	return false
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
		return ctx.f.Code[n].Kind != rtl.KStore || !mayAlias(refAt(refs, n), ld)
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
	defsAfter := map[rtl.Reg]int{}
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
				y.IsFIFO() || y.IsZero() || y.Class != ld.class || ctx.defCount[y] != 0 || defsAfter[y] != 1 {
				break
			}
			moved := false
			rtl.ExprRegs(i.Addr, func(r rtl.Reg) { moved = moved || defsAfter[r] > 0 })
			if !moved && sameLin(ctx.linearize(i.Addr, n, 0), ld.lin) {
				return y, true
			}
		}
		if d, ok := i.Def(); ok {
			defsAfter[d]++
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

func anyMayAlias(stores []*memRef, r *memRef) bool {
	for _, st := range stores {
		if mayAlias(st, r) {
			return true
		}
	}
	return false
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

// usedBeforeDefInLoop reports whether d could be read in the loop
// before the definition at index defIdx executes — i.e. whether the
// pre-loop value of d is observable.  With a single in-loop definition
// that dominates all latches, only uses on the path from the header to
// the definition matter; we approximate by checking liveness into the
// definition's block.
func usedBeforeDefInLoop(f *rtl.Func, g *cfg.Graph, l *cfg.Loop, d rtl.Reg, defIdx int) bool {
	b := g.BlockOf(defIdx)
	if b == nil {
		return true
	}
	// Within the block: any earlier use?
	for n := b.Start; n < defIdx; n++ {
		for _, u := range f.Code[n].Uses(nil) {
			if u == d {
				return true
			}
		}
	}
	// Into the block from elsewhere in the loop: live-in implies a use
	// upstream; if the block is the header, the live-in value is the
	// hoisted one (fine), otherwise conservative.
	if b == l.Header {
		return false
	}
	return b.LiveIn.Has(d)
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

// --- preheader management ------------------------------------------------

// freshPreheaderLabel picks the lowest unused LP<n> label name in the
// function.  Numbering is per-function (labels are function-scoped in
// the linker) and derived only from the function's own code, so
// optimizing functions concurrently — or in any order — yields
// identical names.  A package-level counter here would be both a data
// race and a determinism leak under the parallel engine.
func freshPreheaderLabel(f *rtl.Func) string {
	max := 0
	for _, i := range f.Code {
		if i.Kind != rtl.KLabel || len(i.Name) < 3 || i.Name[:2] != "LP" {
			continue
		}
		if n, ok := atoi(i.Name[2:]); ok && n > max {
			max = n
		}
	}
	return "LP" + itoa(max+1)
}

// EnsurePreheader guarantees the loop has a dedicated preheader block
// and returns the index of the header's label instruction (from which
// preheaderInsertPos derives where to insert).  It returns -1 when the
// loop header has no label (cannot happen for generated code).
//
// The transformation is textual: a fresh label is placed immediately
// before the header label and every branch to the header from outside
// the loop is retargeted to it.  Fall-through entry naturally passes
// through the new label.
func EnsurePreheader(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) int {
	if l.Preheader != nil {
		return headerLabelIndex(f, g, l)
	}
	hdrIdx := headerLabelIndex(f, g, l)
	if hdrIdx < 0 {
		return -1
	}
	hdrName := f.Code[hdrIdx].Name
	preName := freshPreheaderLabel(f)
	// Retarget outside branches.
	inLoop := map[int]bool{}
	for _, b := range l.BlockList() {
		for n := b.Start; n < b.End; n++ {
			inLoop[n] = true
		}
	}
	for n, i := range f.Code {
		if inLoop[n] {
			continue
		}
		switch i.Kind {
		case rtl.KJump, rtl.KCondJump, rtl.KJumpNotDone:
			if i.Target == hdrName {
				i.Target = preName
			}
		}
	}
	f.Insert(hdrIdx, rtl.NewLabel(preName))
	return hdrIdx + 1
}

// preheaderInsertPos returns the position where hoisted code should be
// inserted: immediately before the header label (i.e. at the end of the
// preheader).
func preheaderInsertPos(f *rtl.Func, hdrLabelIdx int) int { return hdrLabelIdx }

func headerLabelIndex(f *rtl.Func, g *cfg.Graph, l *cfg.Loop) int {
	for n := l.Header.Start; n < l.Header.End; n++ {
		if f.Code[n].Kind == rtl.KLabel {
			return n
		}
	}
	return -1
}

func headerLabel(f *rtl.Func, hdrLabelIdx int) string {
	if hdrLabelIdx >= 0 && hdrLabelIdx < len(f.Code) && f.Code[hdrLabelIdx].Kind == rtl.KLabel {
		return f.Code[hdrLabelIdx].Name
	}
	return ""
}

func findLoopByHeaderLabel(g *cfg.Graph, label string) *cfg.Loop {
	if label == "" {
		return nil
	}
	hb := g.LabelBlock(label)
	if hb == nil {
		return nil
	}
	for _, l := range g.NaturalLoops() {
		if l.Header == hb {
			return l
		}
	}
	return nil
}

func atoi(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
