package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// The restart rule streams a read that writes may alias, provided every
// such write lies in one conditional arm of the loop body.  The stream
// starts in the preheader as usual, stops (sstop, the paper's step-2i
// instruction) at the arm's entry before any write, and starts again at
// the arm's exit from the next iteration's element, with the remaining
// trip count as its count.  While the arm runs no stream is active, so
// whatever it writes, an inner loop's stream-out included, lands before
// the restarted stream fetches it.  Sieve's prime loop is the shape:
//
//	for (i = 2; i < n; i++)
//	    if (flags[i]) { count++; for (k = i + i; k < n; k += i) flags[k] = 0; }
//
// The loop keeps its own compare exit: the arm's inner loop ends on a
// jnd, which shares the per-FIFO iteration counter a jnd of the outer
// stream would read.  Each restart discards a FIFO's worth of prefetch
// and waits out a memory latency, so it pays only when the arm is rare
// or long.  Taken on every iteration, a restart made a loop 13% slower
// than scalar code with a 4-iteration inner loop in the arm and 26%
// slower with a single store (DESIGN.md §3a), so the rule applies only
// to arms that hold every inner loop of the loop.
//
// The rule is the stream planner's third path (plan.go).  Its reads
// pass the shared candidate test and its own: outside the arm, dequeued
// before the arm can begin, no write outside the arm to their region.
// Step 2e counts only the accesses outside the arm and gives no stream
// a FIFO the arm's own streams use.  What is the rule's alone is where
// its streams stop, the arm's entry, and the restart at the arm's exit,
// with the jump that skips it when no trips are left.  Each restart
// reuses the stream's origin, its address at index zero, so the
// restarted base is the origin plus the index term (addrAt).

// restartArm is a single-entry, single-exit region of a loop body:
// entry dominates every block of it, exit is its only block with an
// edge leaving it, and that edge, exit's only one, goes to join.
type restartArm struct {
	entry, exit, join *cfg.Block
	blocks            map[*cfg.Block]bool
}

// findRestartArm returns the smallest arm of l that holds every loop
// nested in it, or nil.  It looks only at the graph, so a loop it
// refuses is left untouched.
func findRestartArm(g *cfg.Graph, l *cfg.Loop, loops []*cfg.Loop) *restartArm {
	var w *cfg.Block
	inner := map[*cfg.Block]bool{}
	for _, in := range loops {
		if in == l || !l.Blocks[in.Header] {
			continue
		}
		for b := range in.Blocks {
			inner[b] = true
		}
		if in.Parent == l {
			w = commonDominator(g, w, in.Header)
		}
	}
	// Walk up from the inner loops' common dominator: the first block
	// that opens an arm opens the smallest one.
	for e := w; e != nil && e != l.Header; e = g.Idom(e) {
		if inner[e] {
			continue
		}
		if arm := armAt(g, l, e); arm != nil {
			return arm
		}
	}
	return nil
}

// commonDominator returns the nearest block dominating both a and b (b
// when a is nil).
func commonDominator(g *cfg.Graph, a, b *cfg.Block) *cfg.Block {
	if a == nil {
		return b
	}
	for d := a; ; d = g.Idom(d) {
		if g.Dominates(d, b) {
			return d
		}
		if g.Idom(d) == d {
			return d
		}
	}
}

// armAt returns the arm of l entered at e, or nil when the blocks e
// dominates hold a latch or leave through more than one edge, or that
// edge leaves the loop or is not its source's only one.
func armAt(g *cfg.Graph, l *cfg.Loop, e *cfg.Block) *restartArm {
	arm := &restartArm{entry: e, blocks: map[*cfg.Block]bool{}}
	for b := range l.Blocks {
		if g.Dominates(e, b) {
			arm.blocks[b] = true
		}
	}
	for _, latch := range l.Latches {
		if arm.blocks[latch] {
			return nil
		}
	}
	for b := range arm.blocks {
		for _, s := range b.Succs {
			if arm.blocks[s] {
				continue
			}
			if arm.exit != nil && (arm.exit != b || arm.join != s) {
				return nil
			}
			arm.exit, arm.join = b, s
		}
	}
	if arm.exit == nil || len(arm.exit.Succs) != 1 || !l.Blocks[arm.join] {
		return nil
	}
	return arm
}

// streamLoopRestart applies the restart rule to l, whose inner loops
// all lie in arm.  Reads it streams pass the planner's candidate test,
// step with the loop's counted induction variable, precede the arm,
// and share a region with no write outside it.
func streamLoopRestart(w *loopWalk, l *cfg.Loop, arm *restartArm, minTrip int64) bool {
	f, g := w.f, w.g
	ctx := analyzeLoop(w, l)
	if ctx.hasCall || len(l.Exits) != 1 || len(l.Latches) != 1 || l.Exits[0] != l.Latches[0] {
		return false // a stream left running past another exit would outlive the loop
	}
	trip := analyzeTrip(ctx)
	if trip == nil || trip.known && trip.constCount < minTrip {
		return false
	}
	// A jump to join skips the restart, so join needs a label.
	if f.Code[arm.join.Start].Kind != rtl.KLabel {
		return false
	}
	// Where the arm sits relative to the increment fixes the value the
	// induction variable holds at its exit.
	incBlock := g.BlockOf(ctx.ivs.Get(trip.iv).defIdx)
	armBefore := g.Dominates(arm.join, incBlock)
	if !armBefore && !g.Dominates(incBlock, arm.entry) {
		return false
	}
	// Stream instructions may sit only in the arm, where the stop has
	// ended the restarted stream; their FIFOs are not the restarted
	// stream's, so the stop cannot end them.
	var used fifoSet
	for b := range l.Blocks {
		for n := b.Start; n < b.End; n++ {
			switch i := f.Code[n]; i.Kind {
			case rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop, rtl.KJumpNotDone:
				if !arm.blocks[b] {
					return false
				}
				used[i.FIFO.Class][i.FIFO.N] = true
			}
		}
	}
	refs, ok := ctx.collectRefs()
	if !ok {
		return false
	}
	// Step 2e counts only the accesses outside the arm: inside it the
	// stream is stopped and scalar loads may use FIFO0.
	outside := func(r *memRef) bool { return !arm.blocks[g.BlockOf(r.accIdx)] }
	var out []*memRef
	for _, r := range refs {
		if outside(r) {
			out = append(out, r)
		}
	}
	streams := allocFIFOs(ctx.streamCandidates(out, func(r *memRef) bool {
		return !r.write && r.lin.iv == trip.iv &&
			dequeuedBeforeArm(ctx, r, arm.entry) && !writtenOutside(refs, r, outside)
	}), countAccesses(out), used)
	if len(streams) == 0 || ctx.loopLabel() == "" {
		return false
	}

	// Preheader: the count and the stream-ins.  Each stream's origin
	// and stride are loop-invariant registers the restarts reuse.
	var pre []*rtl.Instr
	count := clampCount(f, &pre, buildCount(f, &pre, trip), trip)
	origin := make([]rtl.Expr, len(streams))
	stride := make([]rtl.Expr, len(streams))
	var stopped []rtl.Reg
	for k, s := range streams {
		stride[k] = buildStride(f, &pre, s.ref.lin.cee, s.ivi)
		origin[k] = buildLinExpr(ctx, &pre, linform{base: s.ref.lin.base}, trip.iv, s.ref.lin.off, s.ref.class)
		if _, isImm := origin[k].(rtl.Imm); !isImm {
			o := f.NewVirt(rtl.Int)
			pre = append(pre, rtl.NewAssign(o, origin[k]))
			origin[k] = rtl.RX(o)
		}
		pre = append(pre, newStream(f, s, s.addrAt(rtl.RX(trip.iv), origin[k], stride[k]), count, stride[k],
			"stream in, stopped around arm writes")...)
		stopped = append(stopped, s.fifo())
	}
	// Arm exit: the trips left after this one, and each stream again
	// from the next iteration's element unless none are left.
	var restart []*rtl.Instr
	next := rtl.RX(trip.iv)
	if armBefore {
		n := f.NewVirt(rtl.Int)
		ni := rtl.NewAssign(n, rtl.B(rtl.Add, next, trip.stepX))
		ni.Note = "next iteration's index"
		restart = append(restart, ni)
		next = rtl.RX(n)
	}
	left := buildCountFrom(f, &restart, trip, next)
	restart = append(restart,
		rtl.NewAssign(rtl.R31, rtl.B(rtl.Gt, left, rtl.I(0))),
		rtl.NewCondJump(f.Code[arm.join.Start].Name, false, rtl.Int))
	for k, s := range streams {
		restart = append(restart, newStream(f, s, s.addrAt(next, origin[k], stride[k]), left, stride[k], "restart stream")...)
	}

	exitAt := arm.exit.End
	if f.Code[exitAt-1].Kind == rtl.KJump {
		exitAt--
	}
	entry := f.Code[arm.entry.Start]
	rewriteStreams(f, streams, edit{at: exitAt, ins: restart}, edit{at: ctx.hdrLabelIdx, ins: pre})
	// Arm entry: stop every restarted stream before the arm's first
	// instruction.
	insertStops(f, []stopSite{{entry, entry.Kind == rtl.KLabel}}, stopped, "stop stream before arm writes")
	return true
}

// addrAt returns the address of the element s reads when the induction
// variable holds iv, from origin, s's address at index zero.
func (s *streamRef) addrAt(iv, origin, stride rtl.Expr) rtl.Expr {
	addr := rtl.B(rtl.Add, ivTerm(iv, s.ref.lin.cee), origin)
	if s.after {
		addr = rtl.B(rtl.Add, addr, stride)
	}
	return addr
}

// dequeuedBeforeArm reports whether r's element has left the FIFO
// whenever the arm's stop executes.  The fetch unit executes the stop
// itself, ahead of the execute units, so it must first have passed a
// conditional jump whose compare runs after the dequeue on the same,
// in-order, unit: a block dominating the entry that ends in such a jump
// and holds no other compare of its class.
func dequeuedBeforeArm(ctx *loopCtx, r *memRef, entry *cfg.Block) bool {
	unit := rtl.Int
	if d := ctx.f.Code[r.dataIdx]; d.Kind == rtl.KAssign {
		unit = d.Dst.Class
	}
	for b := ctx.g.Idom(entry); ctx.loop.Blocks[b]; b = ctx.g.Idom(b) {
		if jmp := ctx.f.Code[b.End-1]; jmp.Kind == rtl.KCondJump && jmp.CCClass == unit {
			cmp, n := -1, 0
			for k := b.Start; k < b.End; k++ {
				if i := ctx.f.Code[k]; i.IsCompare() && i.Dst.Class == unit {
					cmp, n = k, n+1
				}
			}
			if n == 1 && (cmp == r.dataIdx || precedes(ctx, r.dataIdx, cmp)) {
				return true
			}
		}
		if b == ctx.loop.Header {
			break
		}
	}
	return false
}

// writtenOutside reports whether a write outside the arm may touch the
// region r reads: only a write to another named region cannot.
func writtenOutside(refs []*memRef, r *memRef, outside func(*memRef) bool) bool {
	for _, w := range refs {
		if w.write && outside(w) && (r.region == "" || w.region == "" || w.region == r.region) {
			return true
		}
	}
	return false
}
