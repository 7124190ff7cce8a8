package opt

import (
	"slices"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Streams implements the paper's streaming optimization algorithm (its
// Figure 5 -> Figure 7 transformation):
//
//	Step 1    determine the loop's iteration count; too few
//	          iterations (MinTrip) means streaming costs more than it
//	          saves;
//	Step 2    for every safe partition, verify each reference runs on
//	          every iteration with a fixed stride, allocate a FIFO,
//	          emit sin/sout in the preheader, and rewrite the body's
//	          loads/stores into FIFO register references;
//	Step 2a   applied per read: a read streams unless a memory
//	          recurrence remains through it (readStreams), so a read
//	          streams past writes that trail it; a partition holding
//	          reads keeps its writes scalar;
//	Step 2e   FIFO allocation: FIFO0 carries a stream only when no
//	          scalar access of its class and direction is left;
//	Step 2i   replace the loop test with jump-on-stream-not-exhausted,
//	          or, when the count is unknown, stream with an infinite
//	          count and stop the streams at every exit;
//	Step 2j   the induction variable dies and dead-code elimination
//	          (rerun by the driver) removes its increment;
//	Step 3    strength reduction of whatever addressing remains is a
//	          separate pass (StrengthReduce).
//
// One planner (plan.go) does step 2 for three kinds of loop: the
// candidate test (streamCandidates), step 2e (allocFIFOs), the stream
// instructions (newStream) and the body rewrite (rewriteStreams).  Each
// path adds its own admission rule, its count and where its streams
// stop:
//
//   - streamLoop, an innermost loop with a computable count: reads and
//     writes stream with that count, jnd replaces the loop test, and
//     input streams stop at side exits;
//   - streamLoopInfinite, an innermost loop whose count is unknown:
//     reads stream with count -1 and stop at every exit;
//   - streamLoopRestart, a loop whose inner loops all lie in one arm,
//     after the innermost loops: reads stream with the loop's count,
//     stop at the arm's entry and start again at its exit with the
//     trips left.
//
// Once the loops are done, infinite streams start as early as is safe
// (early.go).  Returns whether anything changed.
func Streams(f *rtl.Func, minTrip int64) (bool, error) {
	changed, err := walkLoops(f, "Streams", true,
		func(w *loopWalk, l *cfg.Loop) bool {
			return !slices.ContainsFunc(w.loops, func(in *cfg.Loop) bool { return in.Parent == l }) &&
				streamLoop(w, l, minTrip)
		},
		func(w *loopWalk, l *cfg.Loop) bool {
			arm := findRestartArm(w.g, l, w.loops)
			return arm != nil && streamLoopRestart(w, l, arm, minTrip)
		})
	if err != nil {
		return changed, err
	}
	early, err := startStreamsEarly(f)
	return changed || early, err
}

// DeadIVs implements the paper's step 2j: after streaming replaces the
// loop test and the address computations, an induction variable whose
// only remaining use is its own increment is dead, but ordinary
// liveness cannot see through the self-reference cycle.  This pass
// deletes such increments (when the variable is also dead at every
// loop exit).
func DeadIVs(f *rtl.Func) (bool, error) {
	return walkLoops(f, "DeadIVs", false, func(w *loopWalk, l *cfg.Loop) bool {
		w.liveness()
		ctx := analyzeLoop(w, l)
		for _, iv := range ctx.ivRegs {
			ivi := ctx.ivs.Get(iv)
			// A use inside the loop other than the increment's own
			// operand, or one after it, keeps the variable.
			used := slices.ContainsFunc(l.ExitTargets, func(t *cfg.Block) bool { return t.LiveIn.Has(iv) })
			for _, b := range l.BlockList() {
				for n := b.Start; n < b.End && !used; n++ {
					used = n != ivi.defIdx && slices.Contains(w.f.Code[n].Uses(nil), iv)
				}
			}
			if !used {
				w.f.Remove(ivi.defIdx)
				return true
			}
		}
		return false
	})
}

// tripInfo describes the loop's iteration count.
type tripInfo struct {
	iv      rtl.Reg
	step    int64   // constant step, 0 when regStep
	stepReg rtl.Reg // register step (assumed positive)
	regStep bool
	stepX   rtl.Expr // the step as an expression
	limit   rtl.Expr // invariant register or constant
	op      rtl.Op   // continue-condition: iv' op limit (iv' = post-increment value)
	cmpIdx  int      // latch compare instruction
	jmpIdx  int      // latch conditional jump
	// constCount >= 0 when the count is known at compile time.
	constCount int64
	known      bool
}

// analyzeTrip recognizes the bottom-tested loop shape the code
// expander emits: a latch block ending in "zero := (iv OP limit);
// jump{T,F} header" where iv is a basic induction variable read after
// its increment.
func analyzeTrip(ctx *loopCtx) *tripInfo {
	f := ctx.f
	if len(ctx.loop.Latches) != 1 {
		return nil
	}
	latch := ctx.loop.Latches[0]
	jmpIdx := latch.End - 1
	jmp := f.Code[jmpIdx]
	if jmp.Kind != rtl.KCondJump {
		return nil
	}
	cmpIdx := jmpIdx - 1
	if cmpIdx < latch.Start {
		return nil
	}
	cmp := f.Code[cmpIdx]
	if !cmp.IsCompare() {
		return nil
	}
	bin := cmp.Src.(rtl.Bin)
	op := bin.Op
	if !jmp.Sense {
		op = op.Negate()
	}
	// One side must be exactly an induction variable, the other
	// invariant.
	var iv rtl.Reg
	var limit rtl.Expr
	if lx, ok := bin.L.(rtl.RegX); ok {
		if ctx.isIV(lx.Reg) && ctx.operandInvariant(bin.R) {
			iv, limit = lx.Reg, bin.R
		}
	}
	if iv.N == 0 && iv.Class == rtl.Int {
		if rx, ok := bin.R.(rtl.RegX); ok {
			if ctx.isIV(rx.Reg) && ctx.operandInvariant(bin.L) {
				iv, limit = rx.Reg, bin.L
				op = op.Swap()
			}
		}
	}
	if limit == nil {
		return nil
	}
	ivi := ctx.ivs.Get(iv)
	info := &tripInfo{iv: iv, step: ivi.step, stepReg: ivi.stepReg,
		regStep: ivi.regStep, stepX: ivi.stepExpr(),
		limit: limit, op: op, cmpIdx: cmpIdx, jmpIdx: jmpIdx}
	// The compare must read the post-increment value: the increment
	// must precede the compare in the latch block (or dominate it).
	if !precedes(ctx, ivi.defIdx, cmpIdx) {
		return nil
	}
	// Direction check.  Register steps are assumed positive (the only
	// pattern the expander emits is "iv = iv + positive step"), so only
	// upward conditions qualify.
	switch {
	case info.regStep && (op == rtl.Lt || op == rtl.Le):
	case !info.regStep && info.step > 0 && (op == rtl.Lt || op == rtl.Le || op == rtl.Ne):
	case !info.regStep && info.step < 0 && (op == rtl.Gt || op == rtl.Ge || op == rtl.Ne):
	default:
		return nil
	}
	// Constant count when both ends are constants.
	if !info.regStep {
		if ivInit, ok := ctx.initialValue(iv); ok {
			if lim, ok := limit.(rtl.Imm); ok {
				n, ok := countIterations(ivInit, lim.V, info.step, op)
				if ok {
					info.constCount = n
					info.known = true
				}
			}
		}
	}
	return info
}

// precedes reports whether instruction a executes before b on every
// iteration (same block and earlier, or a's block dominates b's).
func precedes(ctx *loopCtx, a, b int) bool {
	ba, bb := ctx.g.BlockOf(a), ctx.g.BlockOf(b)
	if ba == nil || bb == nil {
		return false
	}
	if ba == bb {
		return a < b
	}
	return ctx.g.Dominates(ba, bb)
}

// readStreams is the paper's step 2a for one read r of a safe
// partition: r may stream unless a memory recurrence remains through
// it, that is, unless a write of the partition can store into an
// element r has yet to fetch.  A safe partition's references share iv,
// cee, base, class and size, with offsets a multiple of cee apart, so
// a write w lands, in iteration t, on the element r fetches in
// iteration t + δ/(|cee|·|step|), where
//
//	δ = (w.off − r.off)·sign(cee)·sign(step) + (w' − r')·|cee|·|step|
//
// and w', r' are 1 for a reference after the increment (its linear
// form sees the stepped value).  With δ < 0 the write trails the read:
// it touches only elements the execute unit has already dequeued, so
// it never meets a stream prefetch, and the stream needs no interlock.
// With δ = 0 both touch one element in the same iteration, so r must
// run first, its dequeue before w's enqueue: the dequeue proves the
// element was fetched before the store's datum exists.  A register
// step counts as positive only when stepUp says the loop test proves
// it (analyzeTrip accepts a register step only under a `<`/`<=` test
// of that induction variable); its magnitude is then at least one,
// which bounds δ from above when only r follows the increment and
// leaves it unbounded when only w does.  Without that proof the
// step's sign, and so δ's, is unknown, and a partition with a write
// keeps r scalar.
func readStreams(ctx *loopCtx, p *partition, r *memRef, stepUp bool) bool {
	if !p.hasWrite() {
		return true
	}
	ivi, ok := ctx.ivOf(r.lin.iv)
	if !ok || ivi.regStep && !stepUp {
		return false
	}
	rAfter, ok := afterIncrement(ctx, ivi.defIdx, r.accIdx)
	if !ok {
		return false
	}
	// sign(cee)·sign(step) and |cee|·|step|, a register step counting
	// as +1.
	sign, span := ivSign(r.lin.cee), r.lin.cee*ivSign(r.lin.cee)
	if !ivi.regStep {
		sign, span = sign*ivSign(ivi.step), span*ivi.step*ivSign(ivi.step)
	}
	for _, w := range p.refs {
		if !w.write {
			continue
		}
		wAfter, ok := afterIncrement(ctx, ivi.defIdx, w.accIdx)
		if !ok || ivi.regStep && wAfter && !rAfter {
			return false
		}
		delta := (w.lin.off - r.lin.off) * sign
		switch {
		case wAfter && !rAfter:
			delta += span
		case rAfter && !wAfter:
			delta -= span
		}
		if delta > 0 || delta == 0 &&
			!(precedes(ctx, r.accIdx, w.accIdx) && precedes(ctx, r.dataIdx, w.dataIdx)) {
			return false
		}
	}
	return true
}

// afterIncrement reports whether the reference at n sees the
// induction variable's stepped value, given its increment at inc; ok
// is false when the order is ambiguous.  In an innermost loop a block
// the increment does not dominate is reached only before it within an
// iteration (the increment dominates the latches), so a conditional
// reference on an if-arm reads the unstepped value.
func afterIncrement(ctx *loopCtx, inc, n int) (after, ok bool) {
	switch {
	case precedes(ctx, n, inc):
		return false, true
	case precedes(ctx, inc, n):
		return true, true
	}
	return false, isInnermost(ctx)
}

func ivSign(v int64) int64 {
	if v < 0 {
		return -1
	}
	return 1
}

// operandInvariant reports whether the expression is a constant or an
// invariant register.
func (ctx *loopCtx) operandInvariant(e rtl.Expr) bool {
	switch x := e.(type) {
	case rtl.Imm:
		return true
	case rtl.RegX:
		return ctx.invariant(x.Reg)
	}
	return false
}

// initialValue finds the constant value of a register at loop entry by
// scanning backwards through the chain of straight-line predecessor
// blocks (preheader, then any block that falls into it exclusively).
func (ctx *loopCtx) initialValue(r rtl.Reg) (int64, bool) {
	b := ctx.loop.Preheader
	if b == nil {
		return 0, false
	}
	for hops := 0; hops < 16 && b != nil; hops++ {
		for n := b.End - 1; n >= b.Start; n-- {
			i := ctx.f.Code[n]
			if i.Kind == rtl.KCall {
				return 0, false
			}
			if d, ok := i.Def(); ok && d == r {
				if c, isC := i.Src.(rtl.Imm); isC && i.Kind == rtl.KAssign {
					return c.V, true
				}
				return 0, false
			}
		}
		// A unique predecessor dominates this block, so its code runs
		// on every path here; keep scanning into it.
		if len(b.Preds) != 1 {
			return 0, false
		}
		b = b.Preds[0]
	}
	return 0, false
}

// countIterations solves for the number of body executions of a
// bottom-tested loop: the body runs, iv += step, then the loop
// continues while (iv op limit).
func countIterations(init, limit, step int64, op rtl.Op) (int64, bool) {
	n := int64(0)
	switch op {
	case rtl.Lt:
		n = ceilDiv(limit-init, step)
	case rtl.Le:
		n = ceilDiv(limit-init+1, step)
	case rtl.Gt:
		n = ceilDiv(init-limit, -step)
	case rtl.Ge:
		n = ceilDiv(init-limit+1, -step)
	case rtl.Ne:
		if step != 0 && (limit-init)%step == 0 {
			n = (limit - init) / step
		} else {
			return 0, false
		}
	default:
		return 0, false
	}
	if n < 1 {
		n = 1 // bottom-tested: the body always runs at least once
	}
	return n, true
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// streamLoop applies the algorithm to one innermost loop with a
// computable trip count: reads that pass readStreams and writes of
// partitions without reads become streams, and jnd replaces the loop
// test.
func streamLoop(w *loopWalk, l *cfg.Loop, minTrip int64) bool {
	f := w.f
	ctx := analyzeLoop(w, l)
	if ctx.hasCall || ctx.stream {
		return false
	}
	trip := analyzeTrip(ctx)
	if trip == nil {
		// Paper step 1: "If it is impossible to determine, set
		// loop_count to infinity" — the infinite-stream path.
		return streamLoopInfinite(f, l, ctx)
	}
	if trip.known && trip.constCount < minTrip {
		return false // paper step 1: few iterations, streams not worth it
	}
	refs, ok := ctx.collectRefs()
	if !ok {
		return false
	}
	// A break or return leaves the loop with its input streams still
	// running: they stop at every side exit's target.  An output stream
	// left running there would take the next scalar stores of its FIFO,
	// and one stopped there could lose enqueued data still in flight, so
	// such a loop keeps its writes scalar.
	var sideTargets []*cfg.Block
	for _, b := range l.Exits {
		for _, s := range b.Succs {
			if b != l.Latches[0] && !l.Blocks[s] && !slices.Contains(sideTargets, s) {
				sideTargets = append(sideTargets, s)
			}
		}
	}
	stops, ok := exitStopSites(f, sideTargets)
	if !ok {
		return false
	}
	part := safeParts(ctx.buildPartitions(refs))
	streams := allocFIFOs(ctx.streamCandidates(refs, func(r *memRef) bool {
		p := part[r]
		switch {
		case p == nil || r.lin.iv != trip.iv:
			return false
		case r.write: // step 2a: beside reads, writes stay scalar
			return len(sideTargets) == 0 && !slices.ContainsFunc(p.refs, func(o *memRef) bool { return !o.write })
		}
		// Step 2a: no memory recurrence remains through r; analyzeTrip
		// proved a register step of trip.iv upward.
		return readStreams(ctx, p, r, true)
	}), countAccesses(refs), fifoSet{})
	hdrLabel := ctx.loopLabel()
	if len(streams) == 0 || hdrLabel == "" {
		return false
	}

	// Preheader: the count, then each stream from its first element.
	var seq []*rtl.Instr
	var stopped []rtl.Reg
	count := clampCount(f, &seq, buildCount(f, &seq, trip), trip)
	for _, s := range streams {
		note := "stream out"
		if !s.ref.write {
			note = "stream in"
			if part[s.ref].hasWrite() {
				note += " past scalar stores"
			}
			stopped = append(stopped, s.fifo())
		}
		stride := buildStride(f, &seq, s.ref.lin.cee, s.ivi)
		seq = append(seq, newStream(f, s, ctx.entryAddr(&seq, s, stride), count, stride, note)...)
	}

	// Step 2i: jnd replaces the latch compare and jump.  Every stream
	// has the loop's count; jnd tests the first input stream, or the
	// first output stream when there is none.
	jnd := streams[0]
	for _, s := range streams {
		if !s.ref.write {
			jnd = s
			break
		}
	}
	f.Code[trip.jmpIdx] = &rtl.Instr{Kind: rtl.KJumpNotDone, FIFO: jnd.fifo(), Target: hdrLabel}
	rewriteStreams(f, streams, edit{at: trip.cmpIdx, remove: true}, edit{at: ctx.hdrLabelIdx, ins: seq})
	insertStops(f, stops, stopped, "stop stream at side exit")
	return true
}

// stopSite is where stream stops go on the way into an exit target:
// after the label that starts it, or before the first instruction of a
// target only the loop falls into.
type stopSite struct {
	at    *rtl.Instr
	after bool
}

// exitStopSites returns the stop site of each block of targets, or
// ok=false when a block has no label and more than one predecessor: no
// place in it runs on the loop's way out alone.  A path that reaches a
// label without running the loop stops an inactive stream, which the
// hardware treats as a no-op (scalar FIFO traffic is unaffected), so
// shared labels are fine.
func exitStopSites(f *rtl.Func, targets []*cfg.Block) ([]stopSite, bool) {
	var sites []stopSite
	for _, t := range targets {
		first := f.Code[t.Start]
		switch {
		case first.Kind == rtl.KLabel:
			sites = append(sites, stopSite{first, true})
		case len(t.Preds) == 1:
			sites = append(sites, stopSite{first, false})
		default:
			return nil, false
		}
	}
	return sites, true
}

// insertStops places an sstop of every FIFO in fifos at each site.
func insertStops(f *rtl.Func, sites []stopSite, fifos []rtl.Reg, note string) {
	for _, s := range sites {
		at := slices.Index(f.Code, s.at)
		if s.after {
			at++
		}
		stops := make([]*rtl.Instr, len(fifos))
		for k, fifo := range fifos {
			stops[k] = &rtl.Instr{Kind: rtl.KStreamStop, FIFO: fifo, Note: note}
		}
		f.Insert(at, stops...)
	}
}

// buildCount emits preheader code computing the iteration count and
// returns the expression (a register or constant) to use as the stream
// count.
func buildCount(f *rtl.Func, seq *[]*rtl.Instr, trip *tripInfo) rtl.Expr {
	if trip.known {
		return rtl.I(trip.constCount)
	}
	return buildCountFrom(f, seq, trip, rtl.RX(trip.iv))
}

// buildCountFrom emits code computing the number of iterations the loop
// runs when the induction variable starts at from, unclamped: zero or
// less when none run.
func buildCountFrom(f *rtl.Func, seq *[]*rtl.Instr, trip *tripInfo, from rtl.Expr) rtl.Expr {
	// diff = limit - iv  (or iv - limit for downward loops)
	t := f.NewVirt(rtl.Int)
	var diff rtl.Expr
	up := trip.regStep || trip.step > 0
	if up {
		diff = rtl.B(rtl.Sub, trip.limit, from)
	} else {
		diff = rtl.B(rtl.Sub, from, trip.limit)
	}
	switch trip.op {
	case rtl.Le, rtl.Ge:
		diff = rtl.B(rtl.Add, diff, rtl.I(1))
	}
	if trip.regStep {
		// ceil(diff / step) with a run-time step: one divide in the
		// preheader.
		d := f.NewVirt(rtl.Int)
		di := rtl.NewAssign(d, diff)
		di.Note = "stream span"
		*seq = append(*seq, di)
		num := f.NewVirt(rtl.Int)
		ni := rtl.NewAssign(num, rtl.B(rtl.Sub, rtl.B(rtl.Add, rtl.RX(d), rtl.RX(trip.stepReg)), rtl.I(1)))
		ni.Note = "stream count numerator"
		*seq = append(*seq, ni)
		ins := rtl.NewAssign(t, rtl.B(rtl.Div, rtl.RX(num), rtl.RX(trip.stepReg)))
		ins.Note = "stream count"
		*seq = append(*seq, ins)
		return rtl.RX(t)
	}
	step := trip.step
	if step < 0 {
		step = -step
	}
	if step != 1 {
		diff = rtl.B(rtl.Div, rtl.B(rtl.Add, diff, rtl.I(step-1)), rtl.I(step))
	}
	ins := rtl.NewAssign(t, diff)
	ins.Note = "stream count"
	*seq = append(*seq, ins)
	return rtl.RX(t)
}

// buildStride returns the byte stride of one reference as an
// expression: cee times the step of its induction variable ivi,
// emitting a scaling instruction into the preheader when the step is a
// run-time register.
func buildStride(f *rtl.Func, seq *[]*rtl.Instr, cee int64, ivi ivInfo) rtl.Expr {
	if !ivi.regStep {
		return rtl.I(cee * ivi.step)
	}
	if cee == 1 {
		return rtl.RX(ivi.stepReg)
	}
	t := f.NewVirt(rtl.Int)
	var e rtl.Expr
	if sh := log2i64(cee); sh >= 0 {
		e = rtl.B(rtl.Shl, rtl.RX(ivi.stepReg), rtl.I(int64(sh)))
	} else {
		e = rtl.B(rtl.Mul, rtl.RX(ivi.stepReg), rtl.I(cee))
	}
	ins := rtl.NewAssign(t, e)
	ins.Note = "stream stride"
	*seq = append(*seq, ins)
	return rtl.RX(t)
}

// clampCount emits branch-free code forcing the count to at least one:
// cnt += (1 - cnt) & ((cnt - 1) >> 63).
func clampCount(f *rtl.Func, seq *[]*rtl.Instr, count rtl.Expr, trip *tripInfo) rtl.Expr {
	if trip.known {
		return count // already >= 1 by countIterations
	}
	mask := f.NewVirt(rtl.Int)
	m := rtl.NewAssign(mask, rtl.B(rtl.Shr, rtl.B(rtl.Sub, count, rtl.I(1)), rtl.I(63)))
	m.Note = "count clamp mask"
	*seq = append(*seq, m)
	out := f.NewVirt(rtl.Int)
	o := rtl.NewAssign(out, rtl.B(rtl.Add, count,
		rtl.B(rtl.And, rtl.B(rtl.Sub, rtl.I(1), count), rtl.RX(mask))))
	o.Note = "clamp count to >= 1"
	*seq = append(*seq, o)
	return rtl.RX(out)
}

// streamLoopInfinite implements the paper's unknown-trip-count branch
// of step 2i: read references stream with an infinite count, the
// original loop test remains, and stream-stop instructions are placed
// at every loop exit.  Only input streams are generated — an infinite
// output stream stopped at the exit could lose enqueued data still in
// flight.  Reads pass the same step-2a test as on the finite path, so
// writes of their partition stay scalar; with no loop test bounding
// it, a register step's sign is unknown, so a read beside a write on
// a register-step induction variable stays scalar too.
func streamLoopInfinite(f *rtl.Func, l *cfg.Loop, ctx *loopCtx) bool {
	refs, ok := ctx.collectRefs()
	if !ok {
		return false
	}
	// Stream stops go at the start of each exit target.
	stops, ok := exitStopSites(f, l.ExitTargets)
	if !ok || len(stops) == 0 {
		return false
	}
	part := safeParts(ctx.buildPartitions(refs))
	streams := allocFIFOs(ctx.streamCandidates(refs, func(r *memRef) bool {
		// Step 2a, where no loop test bounds a register step.
		return !r.write && part[r] != nil && readStreams(ctx, part[r], r, false)
	}), countAccesses(refs), fifoSet{})
	if len(streams) == 0 || ctx.loopLabel() == "" {
		return false
	}

	// Preheader: infinite stream-ins.  A stream the guard fold applies
	// to is issued from the guard's load instead.
	type fold struct {
		ld, deq *rtl.Instr
		start   []*rtl.Instr
	}
	var seq []*rtl.Instr
	var stopped []rtl.Reg
	var folds []fold
	for _, s := range streams {
		stopped = append(stopped, s.fifo())
		note := "stream in (infinite)"
		if part[s.ref].hasWrite() {
			note += " past scalar stores"
		}
		stride := buildStride(f, &seq, s.ref.lin.cee, s.ivi)
		if s.after && !s.ivi.regStep {
			if ld, deq := guardLoad(ctx, s.ref, s.fifoN); ld != nil {
				folds = append(folds, fold{ld, deq, newStream(f, s, ld.Addr, rtl.I(-1), stride, note+", guard dequeues")})
				continue
			}
		}
		seq = append(seq, newStream(f, s, ctx.entryAddr(&seq, s, stride), rtl.I(-1), stride, note)...)
	}
	rewriteStreams(f, streams, edit{at: ctx.hdrLabelIdx, ins: seq})
	for _, fd := range folds {
		foldGuard(f, fd.ld, fd.deq, fd.start)
	}

	// Stream stops at every exit (paper step 2i).
	insertStops(f, stops, stopped, "stop infinite stream")
	return true
}
