package opt

import (
	"slices"
	"sort"
	"strings"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// This file implements the loop analysis both headline algorithms rely
// on: basic induction variables, the linear form cee*iv + base + offset
// of memory addresses (the paper's (iv, cee, dee) vectors), and the
// partitioning of a loop's memory references into disjoint regions.

// ivInfo describes a basic induction variable: a register with exactly
// one definition in the loop, of the form iv := iv + step, whose
// definition executes on every iteration.  The step is usually a
// constant; it may also be a loop-invariant register (regStep), which
// the paper's hardware supports directly since the stream stride is a
// register operand — the sieve's prime-strided marking loop relies on
// this.  Register steps are assumed positive (upward loops only).
type ivInfo struct {
	step    int64
	stepReg rtl.Reg
	regStep bool
	defIdx  int
	ok      bool // set in every loopCtx.ivs entry of an induction variable
}

// stepExpr returns the per-iteration increment as an expression.
func (iv ivInfo) stepExpr() rtl.Expr {
	if iv.regStep {
		return rtl.RX(iv.stepReg)
	}
	return rtl.I(iv.step)
}

// loopCtx gathers everything the transforms need about one loop.
type loopCtx struct {
	f    *rtl.Func
	g    *cfg.Graph
	loop *cfg.Loop

	*loopTables
	// symRegs maps a symbolic base term ("_a") to a register that may
	// hold it on entry to the loop (noteSymbolReg), for buildLinExpr.
	symRegs map[string]symReg
	hasCall bool
	hasIO   bool
	stream  bool // loop already contains stream instructions

	hdrLabelIdx int // index of the header's label instruction
}

// loopTables holds a loop analysis' register-indexed tables.  One loop
// driver run keeps one set and hands it to every loopCtx it makes, so
// an analysis clears only the entries the previous one set (each table
// lists its registers) instead of allocating tables of function size
// for every loop.  A loopCtx is therefore valid only until the next
// analyzeLoop of the same run.  At the end of the run the set goes back
// to loopTablePool, empty, for the next run.
type loopTables struct {
	// defIdx locates each register's definitions in the loop; defs
	// lists the registers defined there, in order of first definition.
	defIdx cfg.RegMap[[]int]
	defs   []rtl.Reg
	// ivs describes the basic induction variables, listed in ivRegs in
	// the order of defs.
	ivs    cfg.RegMap[ivInfo]
	ivRegs []rtl.Reg
	// funcDefs locates every definition in the function, built on
	// demand by regionOf for the registers in funcRegs.
	funcDefs  cfg.RegMap[[]int]
	funcRegs  []rtl.Reg
	funcBuilt bool
	// hoisted holds the definitions LICM moves to the end of the
	// preheader in this visit (licm.go); their registers, listed in
	// hoistedRegs, count as invariant, defined there.
	hoisted     cfg.RegMap[*rtl.Instr]
	hoistedRegs []rtl.Reg
	// trace is regionTracer's state, for the registers in traced.
	trace  cfg.RegMap[traceState]
	traced []rtl.Reg
	// feeds maps a register to the loads whose address it feeds,
	// directly or through definitions in the loop; storeFeed holds the
	// registers feeding a store's address.  LICM fills both (feed) for
	// the registers in fed.
	feeds     cfg.RegMap[[]int]
	storeFeed cfg.RegMap[bool]
	fed       []rtl.Reg
}

// reset empties the tables for the next loop.  Definition lists keep
// their storage.
func (t *loopTables) reset() {
	for _, r := range t.defs {
		p := t.defIdx.At(r)
		*p = (*p)[:0]
	}
	for _, r := range t.funcRegs {
		p := t.funcDefs.At(r)
		*p = (*p)[:0]
	}
	for _, r := range t.fed {
		p := t.feeds.At(r)
		*p = (*p)[:0]
	}
	t.storeFeed.Reset(t.fed)
	t.ivs.Reset(t.ivRegs)
	t.hoisted.Reset(t.hoistedRegs)
	t.trace.Reset(t.traced)
	t.defs, t.ivRegs, t.funcRegs, t.hoistedRegs, t.fed, t.traced = t.defs[:0], t.ivRegs[:0], t.funcRegs[:0], t.hoistedRegs[:0], t.fed[:0], t.traced[:0]
	t.funcBuilt = false
}

// defCount returns how many instructions in the loop define r.
func (ctx *loopCtx) defCount(r rtl.Reg) int { return len(ctx.defIdx.Get(r)) }

// ivOf returns r's induction variable record, and whether r is one.
func (ctx *loopCtx) ivOf(r rtl.Reg) (ivInfo, bool) {
	iv := ctx.ivs.Get(r)
	return iv, iv.ok
}

// isIV reports whether r is a basic induction variable of the loop.
func (ctx *loopCtx) isIV(r rtl.Reg) bool { return ctx.ivs.Get(r).ok }

// hoist records def, which defines r, as moving to the end of the
// preheader.
func (ctx *loopCtx) hoist(r rtl.Reg, def *rtl.Instr) {
	if ctx.hoisted.Get(r) == nil {
		ctx.hoistedRegs = append(ctx.hoistedRegs, r)
	}
	ctx.hoisted.Set(r, def)
}

// feed records that r feeds the address of the load at index n, or of
// a store when n is -1.
func (t *loopTables) feed(r rtl.Reg, n int) {
	p := t.feeds.At(r)
	if len(*p) == 0 && !t.storeFeed.Get(r) {
		t.fed = append(t.fed, r)
	}
	if n < 0 {
		t.storeFeed.Set(r, true)
	} else {
		*p = append(*p, n)
	}
}

// analyzeLoop builds a loopCtx on the walk's tables.  The loop must
// already have a preheader (walkLoops inserts them).
func analyzeLoop(w *loopWalk, l *cfg.Loop) *loopCtx {
	f, g := w.f, w.g
	if w.tables == nil {
		w.tables = loopTablePool.Get().(*loopTables)
	}
	w.tables.reset()
	ctx := &loopCtx{f: f, g: g, loop: l, loopTables: w.tables}
	for _, b := range l.BlockList() {
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			if d, ok := i.Def(); ok {
				p := ctx.defIdx.At(d)
				if len(*p) == 0 {
					ctx.defs = append(ctx.defs, d)
				}
				*p = append(*p, n)
			}
			switch i.Kind {
			case rtl.KCall:
				ctx.hasCall = true
			case rtl.KPut:
				ctx.hasIO = true
			case rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop, rtl.KJumpNotDone:
				ctx.stream = true
			}
		}
	}
	ctx.hdrLabelIdx = headerLabelIndex(f, l)
	// Basic induction variables.
	for _, r := range ctx.defs {
		if ctx.defCount(r) != 1 || r.IsZero() || r.IsFIFO() {
			continue
		}
		idx := ctx.defIdx.Get(r)[0]
		i := f.Code[idx]
		if i.Kind != rtl.KAssign || i.HasSideEffects() {
			continue
		}
		b, ok := i.Src.(rtl.Bin)
		if !ok {
			continue
		}
		lx, lok := b.L.(rtl.RegX)
		if !lok || lx.Reg != r {
			continue
		}
		info := ivInfo{defIdx: idx, ok: true}
		switch c := b.R.(type) {
		case rtl.Imm:
			switch b.Op {
			case rtl.Add:
				info.step = c.V
			case rtl.Sub:
				info.step = -c.V
			default:
				continue
			}
			if info.step == 0 {
				continue
			}
		case rtl.RegX:
			// iv := iv + s with an invariant register step.
			if b.Op != rtl.Add || c.Reg.IsFIFO() || c.Reg.IsZero() {
				continue
			}
			if ctx.defCount(c.Reg) != 0 || (ctx.hasCall && !c.Reg.IsVirtual()) {
				continue
			}
			info.regStep = true
			info.stepReg = c.Reg
		default:
			continue
		}
		// The increment must run every iteration.
		blk := g.BlockOf(idx)
		if !dominatesAllLatches(g, ctx.loop, blk) {
			continue
		}
		ctx.ivs.Set(r, info)
		ctx.ivRegs = append(ctx.ivRegs, r)
	}
	return ctx
}

// invariant reports whether the register's value is fixed for the
// duration of the loop.
func (ctx *loopCtx) invariant(r rtl.Reg) bool {
	if r.IsZero() {
		return true
	}
	if r.IsFIFO() {
		return false
	}
	if ctx.hasCall && !r.IsVirtual() {
		return false
	}
	return ctx.defCount(r) == 0 || ctx.hoisted.Get(r) != nil
}

// --- linear address forms -------------------------------------------------

// linform is the analyzed shape of an address: cee*iv + bases + off,
// the paper's (iv, cee, dee) with dee split into symbolic bases plus a
// constant.
type linform struct {
	iv   rtl.Reg // zero value (ZeroReg) when no induction variable
	cee  int64
	base []string // sorted symbolic base terms ("_x", "r21", ...)
	off  int64
	ok   bool
	// expanded records that in-loop helper definitions were substituted
	// to reach this form, i.e. the address costs extra body
	// instructions (strength reduction's profitability signal).
	expanded bool
}

func (lf linform) hasIV() bool { return lf.cee != 0 }

// baseKey identifies the memory region the reference belongs to.
func (lf linform) baseKey() string {
	if len(lf.base) == 0 {
		return "<abs>"
	}
	return strings.Join(lf.base, "+")
}

// linearize analyzes the address expression of the instruction at
// index atIdx.  Registers that are neither induction variables nor
// invariant are expanded through their single in-loop definition when
// that definition provably computes the same value at atIdx.
func (ctx *loopCtx) linearize(e rtl.Expr, atIdx int, depth int) linform {
	bad := linform{}
	if depth > 8 {
		return bad
	}
	switch x := e.(type) {
	case rtl.Imm:
		return linform{off: x.V, ok: true}
	case rtl.Sym:
		return linform{base: []string{"_" + x.Name}, off: x.Off, ok: true}
	case rtl.RegX:
		r := x.Reg
		if r.IsZero() {
			return linform{ok: true}
		}
		if ctx.isIV(r) {
			return linform{iv: r, cee: 1, ok: true}
		}
		if ctx.invariant(r) {
			// An invariant register holding a symbol participates via
			// its symbol name when we can see the defining instruction
			// in the preheader chain; otherwise the register itself is
			// the base term.
			if sym, def, ok := ctx.invariantSym(r); ok {
				ctx.noteSymbolReg(r, sym, def)
				return linform{base: []string{"_" + sym.Name}, off: sym.Off, ok: true}
			}
			return linform{base: []string{r.String()}, ok: true}
		}
		return ctx.expandReg(r, atIdx, depth)
	case rtl.Bin:
		l := ctx.linearize(x.L, atIdx, depth+1)
		r := ctx.linearize(x.R, atIdx, depth+1)
		if !l.ok || !r.ok {
			return bad
		}
		switch x.Op {
		case rtl.Add:
			return addLin(l, r)
		case rtl.Sub:
			neg, ok := negLin(r)
			if !ok {
				return bad
			}
			return addLin(l, neg)
		case rtl.Shl:
			if c, isC := x.R.(rtl.Imm); isC && c.V >= 0 && c.V < 32 && len(l.base) == 0 {
				return scaleLin(l, 1<<uint(c.V))
			}
			return bad
		case rtl.Mul:
			if c, isC := x.R.(rtl.Imm); isC && len(l.base) == 0 {
				return scaleLin(l, c.V)
			}
			return bad
		}
		return bad
	}
	return bad
}

// invariantSym resolves an invariant register to the symbol it was
// loaded with, by scanning backwards from the loop preheader.  It also
// returns the index of that definition, -1 for one LICM is moving.
func (ctx *loopCtx) invariantSym(r rtl.Reg) (rtl.Sym, int, bool) {
	// Find the last definition of r before the loop header.
	def, at := ctx.hoisted.Get(r), -1
	for n := ctx.loop.Header.Start - 1; n >= 0 && def == nil; n-- {
		if d, ok := ctx.f.Code[n].Def(); ok && d == r {
			def, at = ctx.f.Code[n], n
		}
	}
	if def == nil || def.Kind != rtl.KAssign {
		return rtl.Sym{}, at, false
	}
	s, isSym := def.Src.(rtl.Sym)
	return s, at, isSym
}

// symReg is a register whose definition at index def sets it to a
// symbol's address.
type symReg struct {
	reg rtl.Reg
	def int
}

// noteSymbolReg records r, which invariantSym resolved to sym through
// its definition at index def, as the register buildLinExpr may reuse
// for sym's address on entry to the loop, when that definition
// dominates the loop.  Of two such registers it keeps the one defined
// later, closer to the loop.  buildLinExpr still requires r to have no
// other definition in the function.
func (ctx *loopCtx) noteSymbolReg(r rtl.Reg, sym rtl.Sym, def int) {
	key := "_" + sym.Name
	if old, ok := ctx.symRegs[key]; ok && old.def >= def || sym.Off != 0 || !r.IsVirtual() || def < 0 {
		return
	}
	if !ctx.g.Dominates(ctx.g.BlockOf(def), ctx.loop.Header) {
		return
	}
	if ctx.symRegs == nil {
		ctx.symRegs = map[string]symReg{}
	}
	ctx.symRegs[key] = symReg{r, def}
}

// expandReg substitutes the single in-loop definition of r, provided
// the definition reaches atIdx unchanged: same block, earlier position,
// and nothing the definition depends on (including r itself) is
// redefined in between.
func (ctx *loopCtx) expandReg(r rtl.Reg, atIdx, depth int) linform {
	bad := linform{}
	if ctx.defCount(r) != 1 {
		return bad
	}
	defIdx := ctx.defIdx.Get(r)[0]
	i := ctx.f.Code[defIdx]
	if i.Kind != rtl.KAssign || i.HasSideEffects() {
		return bad
	}
	b := ctx.g.BlockOf(atIdx)
	db := ctx.g.BlockOf(defIdx)
	if b == nil || db == nil || b != db || defIdx >= atIdx {
		return bad
	}
	// No register used by the definition may be redefined in between.
	used := []rtl.Reg{r}
	rtl.ExprRegs(i.Src, func(u rtl.Reg) { used = append(used, u) })
	for k := defIdx + 1; k < atIdx; k++ {
		if d, ok := ctx.f.Code[k].Def(); ok && slices.Contains(used, d) {
			return bad
		}
	}
	out := ctx.linearize(i.Src, defIdx, depth+1)
	out.expanded = true
	return out
}

func addLin(a, b linform) linform {
	out := linform{ok: true}
	switch {
	case a.cee == 0:
		out.iv, out.cee = b.iv, b.cee
	case b.cee == 0:
		out.iv, out.cee = a.iv, a.cee
	case a.iv == b.iv:
		out.iv, out.cee = a.iv, a.cee+b.cee
	default:
		return linform{} // two different induction variables
	}
	out.base = append(append([]string{}, a.base...), b.base...)
	sort.Strings(out.base)
	out.off = a.off + b.off
	out.expanded = a.expanded || b.expanded
	return out
}

func negLin(a linform) (linform, bool) {
	if len(a.base) > 0 {
		return linform{}, false
	}
	return linform{iv: a.iv, cee: -a.cee, off: -a.off, ok: true, expanded: a.expanded}, true
}

func scaleLin(a linform, k int64) linform {
	if len(a.base) > 0 {
		return linform{}
	}
	return linform{iv: a.iv, cee: a.cee * k, off: a.off * k, ok: true, expanded: a.expanded}
}

// --- memory regions ---------------------------------------------------------

// regionOf applies the region rule to the address e of a reference
// whose linear form is lin.  It returns the named region ("_sym") every
// byte the reference touches lies in, or "" when the reference may
// touch any region.  References to different named regions never
// overlap: each global is its own region, and an access through a
// symbol plus an integer index stays inside that symbol's object.
//
// The rule: an address is in region _s when it adds exactly one symbol,
// _s, and never subtracts one.  When the address linearizes, its other
// terms are the induction variable and invariant registers, and one
// symbolic base suffices.  When it does not, every register in it must
// trace, through all of its definitions in the function, to integer
// arithmetic with no symbol, FIFO, physical or parameter register in it
// (parameters arrive in physical registers): an index built from a
// loaded value, a call result or a pointer leaves the region unknown.
func (ctx *loopCtx) regionOf(e rtl.Expr, lin linform) string {
	if lin.ok {
		region, syms := "", 0
		for _, b := range lin.base {
			if b[0] == '_' {
				region = b
				syms++
			}
		}
		if syms == 1 {
			return region
		}
	}
	// The trace rejects a FIFO or physical register wherever it meets
	// one; rejecting those in the address itself first spares stack and
	// parameter references the function-wide definition index.
	direct := true
	rtl.ExprRegs(e, func(r rtl.Reg) { direct = direct && !r.IsFIFO() && (r.IsVirtual() || r.IsZero()) })
	if !direct {
		return ""
	}
	if !ctx.funcBuilt {
		for n, i := range ctx.f.Code {
			if d, ok := i.Def(); ok {
				p := ctx.funcDefs.At(d)
				if len(*p) == 0 {
					ctx.funcRegs = append(ctx.funcRegs, d)
				}
				*p = append(*p, n)
			}
		}
		ctx.funcBuilt = true
	}
	t := regionTracer{ctx: ctx}
	s := t.expr(e, false)
	ctx.trace.Reset(ctx.traced)
	ctx.traced = ctx.traced[:0]
	if !s.ok || s.syms != 1 {
		return ""
	}
	return "_" + s.sym
}

// symTerms is the symbol content of a traced value: how many symbols
// it adds (0 or 1 for a usable address) and which one.
type symTerms struct {
	sym  string
	syms int
	ok   bool
}

type traceState struct {
	active  bool // its definitions are being traced
	assumed bool // a cycle through its definitions assumed it holds no symbol
	done    bool
	terms   symTerms
}

// regionTracer evaluates the region rule over one address.  A register
// met again while its own definitions are being traced (an induction
// variable) is provisionally assumed symbol-free; the assumption is
// checked once all its definitions are known.
type regionTracer struct {
	ctx *loopCtx
}

// expr traces e; noSym demands that it contain no symbol at all (it is
// subtracted, scaled or otherwise not a plain added term).
func (t *regionTracer) expr(e rtl.Expr, noSym bool) symTerms {
	var s symTerms
	switch x := e.(type) {
	case rtl.Imm:
		s = symTerms{ok: true}
	case rtl.Sym:
		s = symTerms{sym: x.Name, syms: 1, ok: true}
	case rtl.RegX:
		s = t.reg(x.Reg)
	case rtl.Un:
		if x.Op != rtl.Neg && x.Op != rtl.Not {
			return symTerms{}
		}
		s = t.expr(x.X, true)
	case rtl.Bin:
		l := t.expr(x.L, noSym || (x.Op != rtl.Add && x.Op != rtl.Sub))
		r := t.expr(x.R, noSym || x.Op != rtl.Add)
		if !l.ok || !r.ok {
			return symTerms{}
		}
		s = symTerms{sym: l.sym + r.sym, syms: l.syms + r.syms, ok: true}
	default:
		return symTerms{}
	}
	if !s.ok || s.syms > 1 || (noSym && s.syms > 0) {
		return symTerms{}
	}
	return s
}

// reg traces every definition of r; they must all agree.
func (t *regionTracer) reg(r rtl.Reg) symTerms {
	if r.IsZero() {
		return symTerms{ok: true}
	}
	if r.IsFIFO() || !r.IsVirtual() {
		return symTerms{}
	}
	tables := t.ctx.loopTables
	switch st := tables.trace.At(r); {
	case st.done:
		return st.terms
	case st.active:
		st.assumed = true
		return symTerms{ok: true}
	default:
		st.active = true
		tables.traced = append(tables.traced, r)
	}
	defs := tables.funcDefs.Get(r)
	out := symTerms{}
	for k, n := range defs {
		i := t.ctx.f.Code[n]
		if i.Kind != rtl.KAssign || i.HasSideEffects() {
			out = symTerms{}
			break
		}
		s := t.expr(i.Src, false)
		if !s.ok || (k > 0 && s != out) {
			out = symTerms{}
			break
		}
		out = s
	}
	// The trace may have grown the table: look the entry up again.
	st := tables.trace.At(r)
	if st.assumed && out.syms != 0 {
		out = symTerms{}
	}
	st.active, st.done, st.terms = false, true, out
	return out
}

// --- memory references and partitions -------------------------------------

// memRef is one load or store in the loop together with its linear
// form and the FIFO-side instruction that carries its datum.
type memRef struct {
	accIdx  int // index of the KLoad/KStore
	dataIdx int // index of the dequeue (loads) / enqueue (stores); -1 if unmatched
	write   bool
	lin     linform
	size    int
	class   rtl.Class
	every   bool   // executes on every iteration (block dominates latches)
	unknown bool   // address does not linearize
	region  string // named region by the region rule; "" may touch any
}

// partition groups references that touch one memory region, mirroring
// the paper's partitions.
type partition struct {
	key    string
	refs   []*memRef
	unsafe bool
}

// hasWrite reports whether the partition holds a store.
func (p *partition) hasWrite() bool {
	return slices.ContainsFunc(p.refs, func(r *memRef) bool { return r.write })
}

// collectRefs finds every memory reference in the loop and pairs each
// with its datum instruction.  It returns ok=false when FIFO discipline
// cannot be established (a reference's datum instruction cannot be
// identified), in which case the loop must be left alone.
func (ctx *loopCtx) collectRefs() (refs []*memRef, ok bool) {
	f := ctx.f
	for b := range ctx.loop.Blocks {
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			switch i.Kind {
			case rtl.KLoad:
				r := &memRef{accIdx: n, write: false, size: i.MemSize, class: i.MemClass}
				r.dataIdx = ctx.findDequeue(b, n, i)
				if r.dataIdx < 0 {
					return nil, false
				}
				r.lin = ctx.linearize(i.Addr, n, 0)
				r.unknown = !r.lin.ok
				r.region = ctx.regionOf(i.Addr, r.lin)
				r.every = dominatesAllLatches(ctx.g, ctx.loop, b)
				refs = append(refs, r)
			case rtl.KStore:
				r := &memRef{accIdx: n, write: true, size: i.MemSize, class: i.MemClass}
				r.dataIdx = ctx.findEnqueue(b, n, i)
				if r.dataIdx < 0 {
					return nil, false
				}
				r.lin = ctx.linearize(i.Addr, n, 0)
				r.unknown = !r.lin.ok
				r.region = ctx.regionOf(i.Addr, r.lin)
				r.every = dominatesAllLatches(ctx.g, ctx.loop, b)
				refs = append(refs, r)
			}
		}
	}
	return refs, true
}

// findDequeue locates the instruction consuming the load's datum: the
// next read of the load's FIFO register in the same block, with no
// other load of that FIFO in between.
func (ctx *loopCtx) findDequeue(b *cfg.Block, loadIdx int, load *rtl.Instr) int {
	fifo := rtl.Reg{Class: load.MemClass, N: load.FIFO.N}
	for n := loadIdx + 1; n < b.End; n++ {
		i := ctx.f.Code[n]
		if i.Kind == rtl.KLoad && i.MemClass == load.MemClass && i.FIFO.N == load.FIFO.N {
			return -1 // another request before ours was consumed
		}
		reads := 0
		for _, u := range i.Uses(nil) {
			if u == fifo {
				reads++
			}
		}
		if reads == 1 {
			return n
		}
		if reads > 1 {
			return -1 // multi-dequeue instruction: ambiguous pairing
		}
	}
	return -1
}

// findEnqueue locates the instruction producing the store's datum: the
// closest preceding write to the store's FIFO register in the same
// block, with no other store of that FIFO in between.
func (ctx *loopCtx) findEnqueue(b *cfg.Block, storeIdx int, store *rtl.Instr) int {
	for n := storeIdx - 1; n >= b.Start; n-- {
		i := ctx.f.Code[n]
		if i.Kind == rtl.KStore && i.MemClass == store.MemClass && i.FIFO.N == store.FIFO.N {
			return -1
		}
		if i.Kind == rtl.KAssign && i.Dst.Class == store.MemClass && i.Dst.N == store.FIFO.N {
			return n
		}
	}
	return -1
}

// buildPartitions implements the paper's steps 1-3.  Step 1 groups the
// references by the region the region rule (regionOf) names.  A
// reference whose region is unknown — through a pointer, or indexed by
// a loaded value — "joins every partition" in the paper's words and
// poisons them all.  A reference whose address does not linearize but
// whose region is named poisons only its own partition.  Step 3 applies
// the safety tests: the same induction variable, cee and base, and
// offsets on the same lattice.
//
// Poisoning guards against a write reaching an element a stream has
// fetched, so it matters only in a loop that writes memory.  In a loop
// with no store, no stream instruction and no call, a read of unknown
// region that linearizes joins a partition keyed by its base terms
// instead (reads through one pointer share it), and step 3 applies to
// that partition as to any other.
func (ctx *loopCtx) buildPartitions(refs []*memRef) []*partition {
	readOnly := !ctx.hasCall && !ctx.stream && !slices.ContainsFunc(refs, func(r *memRef) bool { return r.write })
	byKey := map[string]*partition{}
	var order []string
	var unknowns []*memRef
	for _, r := range refs {
		key := r.region
		if key == "" {
			if !readOnly {
				unknowns = append(unknowns, r)
				continue
			}
			if !r.lin.ok {
				continue // cannot stream, and poisons nothing without a write
			}
			key = r.lin.baseKey()
		}
		p := byKey[key]
		if p == nil {
			p = &partition{key: key}
			byKey[key] = p
			order = append(order, key)
		}
		p.refs = append(p.refs, r)
	}
	parts := make([]*partition, 0, len(order))
	sort.Strings(order)
	for _, key := range order {
		p := byKey[key]
		if len(unknowns) > 0 {
			p.refs = append(p.refs, unknowns...)
			p.unsafe = true
		}
		parts = append(parts, p)
	}
	// Step 3 safety tests.
	for _, p := range parts {
		if p.unsafe {
			continue
		}
		first := p.refs[0]
		for _, r := range p.refs {
			if !r.lin.hasIV() || r.lin.iv != first.lin.iv || r.lin.cee != first.lin.cee {
				p.unsafe = true
				break
			}
			if r.lin.baseKey() != first.lin.baseKey() || mod(r.lin.off-first.lin.off, r.lin.cee) != 0 {
				p.unsafe = true
				break
			}
			if r.class != first.class || r.size != first.size {
				p.unsafe = true
				break
			}
		}
	}
	return parts
}

func mod(a, m int64) int64 {
	if m < 0 {
		m = -m
	}
	if m == 0 {
		return a
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// loopLabel returns the header label name (for diagnostics and for the
// jnd rewrite).
func (ctx *loopCtx) loopLabel() string {
	if ctx.hdrLabelIdx >= 0 && ctx.hdrLabelIdx < len(ctx.f.Code) && ctx.f.Code[ctx.hdrLabelIdx].Kind == rtl.KLabel {
		return ctx.f.Code[ctx.hdrLabelIdx].Name
	}
	return ""
}
