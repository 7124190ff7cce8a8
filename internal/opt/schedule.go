package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// ScheduleLoopTest implements the paper's condition-code scheduling
// discipline: "It is also the compiler's job to arrange the code so
// that the computation of the condition code occurs well before the
// result is needed.  When this is done properly, conditional jumps,
// like unconditional jumps, essentially have zero cost."
//
// For a bottom-tested loop whose latch compares the just-incremented
// induction variable against an invariant limit, the compare moves to
// the top of the body, rewritten over the pre-increment value:
//
//	L:  body            L:  r31 := ((iv + step) OP limit)
//	    iv := iv + s        body
//	    r31 := iv OP n  =>  iv := iv + s
//	    jumpT L             jumpT L
//
// The condition code is then enqueued an entire body ahead of the
// branch, so the IFU never stalls at the bottom of the loop and keeps
// dispatching the next iteration's loads — which is what lets the
// decoupled access pipeline run ahead and hide memory latency.
//
// The transformation is only legal when the loop contains no other
// condition-code producer or consumer (the CC FIFO is strictly
// ordered), and when nothing between the loop top and the increment
// redefines the induction variable or the limit.
func ScheduleLoopTest(f *rtl.Func) (bool, error) {
	return walkLoops(f, "ScheduleLoopTest", false, scheduleLoop)
}

func scheduleLoop(w *loopWalk, l *cfg.Loop) bool {
	f := w.f
	ctx := analyzeLoop(w, l)
	if ctx.hasCall {
		return false // a callee's compares would interleave in the CC FIFO
	}
	trip := analyzeTrip(ctx)
	if trip == nil {
		return false
	}
	// No other CC traffic inside the loop.
	ccOps := 0
	for _, b := range l.BlockList() {
		for n := b.Start; n < b.End; n++ {
			i := f.Code[n]
			if i.IsCompare() || i.Kind == rtl.KCondJump {
				ccOps++
			}
		}
	}
	if ccOps != 2 { // exactly the latch compare + jump
		return false
	}
	// The compare must not already be scheduled (i.e. it sits
	// directly before the jump; analyzeTrip guarantees that).
	hdr := ctx.hdrLabelIdx
	if hdr < 0 || hdr+1 > trip.cmpIdx {
		return false
	}
	// The limit operand must be valid at the loop top: a constant or an
	// invariant register (analyzeTrip guarantees that too).  Build the
	// hoisted compare over the pre-increment value, and rewrite the
	// branch to the canonical taken-when-true sense.
	newCmp := rtl.NewAssign(rtl.Reg{Class: rtl.Int, N: rtl.ZeroReg}, rtl.Bin{
		Op: trip.op,
		L:  rtl.B(rtl.Add, rtl.RX(trip.iv), trip.stepX),
		R:  trip.limit,
	})
	newCmp.Note = "loop test (scheduled early)"
	jmp := f.Code[trip.jmpIdx]
	jmp.Sense = true
	jmp.CCClass = rtl.Int
	f.Remove(trip.cmpIdx)
	f.Insert(hdr+1, newCmp)
	return true
}
