package opt

import (
	"sort"

	"wmstream/internal/rtl"
)

// The stream planner: the steps of the paper's streaming algorithm
// that the finite (streamLoop), infinite (streamLoopInfinite) and
// restart (streamLoopRestart) paths share.  Each path picks candidates
// with streamCandidates, adding only its own admission rule, gives
// them FIFOs with allocFIFOs (step 2e), builds each stream's start
// with newStream, and turns the candidates' accesses into FIFO
// references with rewriteStreams.  What is left to a path is its
// count, where its stops go and, for the restart rule, the restart
// itself.

// streamRef is a reference the planner may stream.
type streamRef struct {
	ref   *memRef
	ivi   ivInfo // its induction variable
	after bool   // it sees the variable's stepped value: its stream starts one stride on
	fifoN int    // the FIFO step 2e gives it
}

func (s *streamRef) fifo() rtl.Reg { return rtl.Reg{Class: s.ref.class, N: s.fifoN} }

// streamCandidates is step 2's candidate test.  It returns, in body
// order, the references of refs that run on every iteration (step 2c),
// step with an induction variable by a nonzero stride, lie
// unambiguously before or after its increment, and pass admit, the
// path's own rule.
func (ctx *loopCtx) streamCandidates(refs []*memRef, admit func(*memRef) bool) []*streamRef {
	var cands []*streamRef
	for _, r := range refs {
		ivi, isIV := ctx.ivOf(r.lin.iv)
		if !r.every || !r.lin.hasIV() || !isIV || !ivi.regStep && r.lin.cee*ivi.step == 0 {
			continue
		}
		after, ok := afterIncrement(ctx, ivi.defIdx, r.accIdx)
		if ok && admit(r) {
			cands = append(cands, &streamRef{ref: r, ivi: ivi, after: after})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ref.accIdx < cands[j].ref.accIdx })
	return cands
}

// safeParts maps each reference of a safe partition to its partition.
func safeParts(parts []*partition) map[*memRef]*partition {
	of := map[*memRef]*partition{}
	for _, p := range parts {
		if !p.unsafe {
			for _, r := range p.refs {
				of[r] = p
			}
		}
	}
	return of
}

// dirClass is the direction and register class of a FIFO.
type dirClass struct {
	write bool
	class rtl.Class
}

// countAccesses counts refs by direction and class.
func countAccesses(refs []*memRef) map[dirClass]int {
	n := map[dirClass]int{}
	for _, r := range refs {
		n[dirClass{r.write, r.class}]++
	}
	return n
}

// fifoSet marks FIFOs by class and number.
type fifoSet [rtl.NumClasses][2]bool

// allocFIFOs is step 2e.  Each class has two FIFOs per direction, but
// FIFO0 doubles as the path for ordinary scalar loads and stores, so it
// carries a stream only when no scalar access of its class and
// direction remains: when all total accesses are candidates and every
// candidate gets a FIFO.  Otherwise scalar traffic keeps FIFO0 and the
// first candidate streams on FIFO1.  A FIFO in inUse, held by another
// stream of the loop, is given to none.  cands must be in body order;
// allocFIFOs returns those given a FIFO, in the same order.  It is the
// one place that decides which FIFOs a loop's streams hold.
func allocFIFOs(cands []*streamRef, total map[dirClass]int, inUse fifoSet) []*streamRef {
	groups := map[dirClass][]*streamRef{}
	for _, c := range cands {
		key := dirClass{c.ref.write, c.ref.class}
		groups[key] = append(groups[key], c)
	}
	var out []*streamRef
	for key, cs := range groups {
		var free []int
		for n := rtl.FIFO0; n <= rtl.FIFO1; n++ {
			if !inUse[key.class][n] {
				free = append(free, n)
			}
		}
		if len(free) > 0 && free[0] == rtl.FIFO0 && (len(cs) != total[key] || len(cs) > len(free)) {
			free = free[1:]
		}
		for k := 0; k < len(cs) && k < len(free); k++ {
			cs[k].fifoN = free[k]
			out = append(out, cs[k])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ref.accIdx < out[j].ref.accIdx })
	return out
}

// newStream returns the instructions that start s's stream from addr,
// counting count elements stride bytes apart: addr's assignment to a
// fresh base register, unless addr is a register already, and the
// stream-in, or the stream-out of a write.
func newStream(f *rtl.Func, s *streamRef, addr, count, stride rtl.Expr, note string) []*rtl.Instr {
	kind := rtl.KStreamIn
	if s.ref.write {
		kind = rtl.KStreamOut
	}
	si := &rtl.Instr{
		Kind:     kind,
		FIFO:     s.fifo(),
		Count:    count,
		Stride:   stride,
		MemSize:  s.ref.size,
		MemClass: s.ref.class,
		Note:     note,
	}
	if x, ok := addr.(rtl.RegX); ok {
		si.Base = x
		return []*rtl.Instr{si}
	}
	base := f.NewVirt(rtl.Int)
	ba := rtl.NewAssign(base, addr)
	ba.Note = "stream base"
	si.Base = rtl.RX(base)
	return []*rtl.Instr{ba, si}
}

// entryAddr returns the address of s's first element: its linear form
// at the induction variable's value on entry to the loop, one stride
// on when s follows the increment.
func (ctx *loopCtx) entryAddr(seq *[]*rtl.Instr, s *streamRef, stride rtl.Expr) rtl.Expr {
	lin := s.ref.lin
	addr := buildLinExpr(ctx, seq, lin, lin.iv, lin.off, s.ref.class)
	if s.after {
		addr = rtl.B(rtl.Add, addr, stride)
	}
	return addr
}

// edit is one change to a function's code at index at: the removal of
// the instruction there, or the insertion of ins before it.
type edit struct {
	at     int
	remove bool
	ins    []*rtl.Instr
}

// rewriteStreams turns each stream's reference into a FIFO reference:
// its dequeue, or a write's enqueue, moves to the stream's FIFO, and
// its load or store goes.  The other edits are applied with those
// removals, from the bottom up so the recorded indices stay valid.
func rewriteStreams(f *rtl.Func, streams []*streamRef, edits ...edit) {
	for _, s := range streams {
		if s.ref.write {
			f.Code[s.ref.dataIdx].Dst = s.fifo()
		} else {
			retarget(f.Code[s.ref.dataIdx], rtl.Reg{Class: s.ref.class, N: rtl.FIFO0}, s.fifo())
		}
		edits = append(edits, edit{at: s.ref.accIdx, remove: true})
	}
	sort.SliceStable(edits, func(i, j int) bool { return edits[i].at > edits[j].at })
	for _, e := range edits {
		if e.remove {
			f.Remove(e.at)
		} else {
			f.Insert(e.at, e.ins...)
		}
	}
}

// retarget makes the dequeue deq read the FIFO to instead of from.
func retarget(deq *rtl.Instr, from, to rtl.Reg) {
	deq.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.SubstReg(e, from, rtl.RX(to)) })
}
