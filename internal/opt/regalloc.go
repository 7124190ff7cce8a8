package opt

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// Register pools available to the assigner.  r0/r1 f0/f1 are FIFOs,
// r2..r9/f2..f9 carry arguments and results, r29/r30/r31 are
// SP/LR/zero, leaving these for allocation.
var pools = [rtl.NumClasses][]int{
	rtl.Int:   poolRange(10, 28),
	rtl.Float: poolRange(10, 30),
}

func poolRange(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	return out
}

// RegAlloc assigns every virtual register to a hardware register using
// linear-scan allocation.  The ABI has no callee-saved registers, so a
// virtual register live across a call needs the stack frame, in one of
// two forms chosen per register by loop-weighted cost:
//
//   - saved around calls: the value stays in a pool register, is stored
//     to its slot just before each call it is live across and reloaded
//     just after it (two memory operations per crossed call);
//   - spilled everywhere: every use loads the slot and every def stores
//     it (one memory operation per use or def).
//
// A register is spilled everywhere only where that costs strictly
// less.  Saving is sound because the reload after every call puts the
// value back before anything reads the clobbered register.  Registers
// that do not fit the pool are spilled everywhere.  Stack traffic uses
// the secondary FIFO pair (r1/f1) so that it can never disturb the
// queue order of ordinary loads and stores, which use r0/f0.
func RegAlloc(f *rtl.Func) error { return RegAllocContext(context.Background(), f) }

// RegAllocContext is RegAlloc stopped by ctx: between spill rounds it
// returns ctx's error once ctx is done, leaving f partly spilled.  A
// function under heavy register pressure spills one register per
// round and rebuilds its intervals each time, so one call can outlast
// a compilation's deadline.
func RegAllocContext(ctx context.Context, f *rtl.Func) error {
	var spilled, saved cfg.RegSet
	// Each round but the last spills a register not spilled before (a
	// respill is an error), so the virtual registers bound the rounds.
	rounds := f.NumVirt(rtl.Int) + f.NumVirt(rtl.Float) + 1
	for range rounds {
		if err := ctx.Err(); err != nil {
			return err
		}
		iv, err := buildIntervals(f)
		if err != nil {
			return err
		}
		// Settle every register live across a call first: spill it
		// everywhere, or mark it to be saved around its calls once the
		// assignment succeeds.
		var toSpill []rtl.Reg
		iv.crossing.ForEach(func(r rtl.Reg, c *crossing) {
			switch {
			case c == nil || spilled.Has(r) || saved.Has(r):
			case c.saveCost <= c.spillCost:
				saved.Add(r)
			default:
				toSpill = append(toSpill, r)
			}
		})
		if len(toSpill) > 0 {
			sortRegs(toSpill)
			for _, r := range toSpill {
				if err := spill(f, r); err != nil {
					return err
				}
				spilled.Add(r)
			}
			continue
		}
		// Try to assign.
		pinned, err := pinnedRegs(f)
		if err != nil {
			return err
		}
		victim, assignment := linearScan(iv, pinned)
		if victim == nil {
			if err := saveAroundCalls(f, iv, saved); err != nil {
				return err
			}
			applyAssignment(f, assignment)
			return nil
		}
		if spilled.Has(*victim) {
			return fmt.Errorf("regalloc: %s respilled; pressure unresolvable", *victim)
		}
		saved.Remove(*victim)
		if err := spill(f, *victim); err != nil {
			return err
		}
		spilled.Add(*victim)
	}
	return fmt.Errorf("regalloc: did not converge")
}

type interval struct {
	reg        rtl.Reg
	start, end int
}

// intervalSet holds the virtual registers' intervals, ordered by start
// (then register), and the crossing of each register live across a
// call (nil for the others).
type intervalSet struct {
	list     []interval
	crossing cfg.RegMap[*crossing]
}

// crossing records a virtual register live across at least one call:
// the calls it is live across and the loop-weighted cost of its two
// stack forms.
type crossing struct {
	calls               []*rtl.Instr
	saveCost, spillCost int
}

// maxWeightDepth caps the loop depth that weighs a block, so that the
// costs cannot overflow.
const maxWeightDepth = 6

func buildIntervals(f *rtl.Func) (*intervalSet, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return nil, err
	}
	g.Liveness()
	// A register's entry is unset while its reg is not the register
	// itself (the zero entry names r0, never a virtual register).
	spans := intervalTables.Get(f)
	defer intervalTables.Put(spans)
	touch := func(r rtl.Reg, pos int) {
		if !r.IsVirtual() {
			return
		}
		if s := spans.At(r); s.reg != r {
			*s = interval{r, pos, pos}
		} else {
			s.start, s.end = min(s.start, pos), max(s.end, pos)
		}
	}
	// Costs matter only when the function makes a call.  A block inside
	// d nested loops weighs 10^d; spillCost counts an instruction once
	// for using a register and once for defining it, as spill rewrites
	// it.
	weight := blockWeights(g)
	spillCost := intTables.Get(f)
	defer intTables.Put(spillCost)
	var counted []rtl.Reg
	var crossings cfg.RegMap[*crossing]
	for _, b := range g.Blocks {
		g.LiveAtEach(b, func(idx int, i *rtl.Instr, after cfg.RegSet) {
			after.ForEach(func(r rtl.Reg) {
				touch(r, idx)
				if idx+1 < b.End {
					touch(r, idx+1)
				}
			})
			counted = counted[:0]
			cfg.InstrUses(i, func(r rtl.Reg) {
				touch(r, idx)
				if weight != nil && r.IsVirtual() && !slices.Contains(counted, r) {
					counted = append(counted, r)
					*spillCost.At(r) += weight[b.Index]
				}
			})
			cfg.InstrDefs(i, func(r rtl.Reg) {
				touch(r, idx)
				if weight != nil && r.IsVirtual() {
					*spillCost.At(r) += weight[b.Index]
				}
			})
			if i.Kind == rtl.KCall {
				after.ForEach(func(r rtl.Reg) {
					if !r.IsVirtual() {
						return
					}
					c := crossings.Get(r)
					if c == nil {
						c = &crossing{}
						crossings.Set(r, c)
					}
					c.calls = append(c.calls, i)
					c.saveCost += 2 * weight[b.Index]
				})
			}
		})
		// Live-in/out at block boundaries.
		b.LiveIn.ForEach(func(r rtl.Reg) { touch(r, b.Start) })
		b.LiveOut.ForEach(func(r rtl.Reg) {
			if b.End > 0 {
				touch(r, b.End-1)
			}
		})
	}
	crossings.ForEach(func(r rtl.Reg, c *crossing) {
		if c != nil {
			c.spillCost = spillCost.Get(r)
		}
	})
	set := &intervalSet{crossing: crossings}
	spans.ForEach(func(_ rtl.Reg, s interval) {
		if s.reg.IsVirtual() {
			set.list = append(set.list, s)
		}
	})
	slices.SortFunc(set.list, func(a, b interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.reg.N, b.reg.N), cmp.Compare(a.reg.Class, b.reg.Class))
	})
	return set, nil
}

// blockWeights returns 10^depth per block index, depth being the
// block's loop nesting (capped at maxWeightDepth), or nil when the
// function makes no call and so needs no costs.
func blockWeights(g *cfg.Graph) []int {
	if !slices.ContainsFunc(g.F.Code, func(i *rtl.Instr) bool { return i.Kind == rtl.KCall }) {
		return nil
	}
	depth := make([]int, len(g.Blocks))
	g.Dominators()
	for _, l := range g.NaturalLoops() {
		for b := range l.Blocks {
			depth[b.Index] = max(depth[b.Index], min(l.Depth, maxWeightDepth))
		}
	}
	weight := make([]int, len(depth))
	for k, d := range depth {
		weight[k] = 1
		for ; d > 0; d-- {
			weight[k] *= 10
		}
	}
	return weight
}

// linearScan attempts a full assignment; on failure it returns the
// register chosen for spilling: the live interval with the furthest
// end, among those not pinned when there are any.
// The assignment maps each virtual register to its pool register; the
// pools hold no r0, so a zero entry means no assignment.
func linearScan(iv *intervalSet, pinned cfg.RegSet) (victim *rtl.Reg, assignment cfg.RegMap[rtl.Reg]) {
	type activeEntry struct {
		interval
		phys int
	}
	var active [rtl.NumClasses][]activeEntry
	var free [rtl.NumClasses][]int
	for c := range pools {
		free[c] = append([]int{}, pools[c]...)
	}
	for _, cur := range iv.list {
		c := cur.reg.Class
		// Expire finished intervals.
		keep := active[c][:0]
		for _, a := range active[c] {
			if a.end >= cur.start {
				keep = append(keep, a)
			} else {
				free[c] = append(free[c], a.phys)
			}
		}
		active[c] = keep
		if len(free[c]) == 0 {
			// Spill the interval ending last (current or an active one).
			worst := cur
			for _, a := range active[c] {
				if p, q := pinned.Has(a.reg), pinned.Has(worst.reg); p == q && a.end > worst.end || q && !p {
					worst = a.interval
				}
			}
			v := worst.reg
			return &v, cfg.RegMap[rtl.Reg]{}
		}
		sort.Ints(free[c])
		phys := free[c][0]
		free[c] = free[c][1:]
		assignment.Set(cur.reg, rtl.Reg{Class: c, N: phys})
		active[c] = append(active[c], activeEntry{cur, phys})
	}
	return nil, assignment
}

func applyAssignment(f *rtl.Func, assignment cfg.RegMap[rtl.Reg]) {
	rename := func(r rtl.Reg) rtl.Reg {
		if p := assignment.Get(r); p != (rtl.Reg{}) {
			return p
		}
		return r
	}
	for _, i := range f.Code {
		i.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.RenameRegs(e, rename) })
		if i.Kind == rtl.KAssign {
			i.Dst = rename(i.Dst)
		}
		for n := range i.Args {
			i.Args[n] = rename(i.Args[n])
		}
	}
}

// spill rewrites every access of r through a stack slot: a load before
// each use, a store after each def.
func spill(f *rtl.Func, r rtl.Reg) error {
	regions, err := streamRegions(f, r.Class)
	if err != nil {
		return err
	}
	oldFrame := f.Frame
	addr := newSlot(f)
	for n := 0; n < len(f.Code); n++ {
		i := f.Code[n]
		usesR := false
		for _, u := range i.Uses(nil) {
			if u == r {
				usesR = true
			}
		}
		defsR := false
		if d, ok := i.Def(); ok && d == r {
			defsR = true
		}
		if !usesR && !defsR {
			continue
		}
		if usesR {
			fifo, err := regions.pick(r.Class, n)
			if err != nil {
				return err
			}
			nv := f.NewVirt(r.Class)
			f.Insert(n,
				rtl.NewLoad(fifo, addr(), 8),
				rtl.NewAssign(nv, rtl.RX(fifo)))
			n += 2
			i.MapExprs(func(e rtl.Expr) rtl.Expr { return rtl.SubstReg(e, r, rtl.RX(nv)) })
			for k := range i.Args {
				if i.Args[k] == r {
					i.Args[k] = nv
				}
			}
			regions.shift(n-2, 2)
		}
		if defsR {
			fifo, err := regions.pick(r.Class, n)
			if err != nil {
				return err
			}
			nv := f.NewVirt(r.Class)
			i.Dst = nv
			f.Insert(n+1,
				rtl.NewAssign(fifo, rtl.RX(nv)),
				rtl.NewStore(fifo, addr(), 8))
			n += 2
			regions.shift(n-1, 2)
		}
	}
	return patchFrame(f, oldFrame, f.Frame)
}

// saveAroundCalls gives each saved register a stack slot, stores it
// just before every call it is live across and reloads it just after.
// Calls clobber every pool register, and the reload puts the value
// back before anything can read it; between calls the value lives in
// its register.  The reload sits directly after the call, ahead of any
// label, so only the call's own path runs it.
func saveAroundCalls(f *rtl.Func, iv *intervalSet, saved cfg.RegSet) error {
	if saved.Len() == 0 {
		return nil
	}
	var regs []rtl.Reg
	saved.ForEach(func(r rtl.Reg) { regs = append(regs, r) })
	sortRegs(regs)
	oldFrame := f.Frame
	var slot cfg.RegMap[func() rtl.Expr]
	at := map[*rtl.Instr][]rtl.Reg{}
	for _, r := range regs {
		slot.Set(r, newSlot(f))
		for _, c := range iv.crossing.Get(r).calls {
			at[c] = append(at[c], r)
		}
	}
	var regions [rtl.NumClasses]fifoRegions
	for c := range regions {
		var err error
		if regions[c], err = streamRegions(f, rtl.Class(c)); err != nil {
			return err
		}
	}
	code := make([]*rtl.Instr, 0, len(f.Code))
	var reloads []*rtl.Instr
	for n, i := range f.Code {
		reloads = reloads[:0]
		for _, r := range at[i] {
			fifo, err := regions[r.Class].pick(r.Class, n)
			if err != nil {
				return err
			}
			save := rtl.NewAssign(fifo, rtl.RX(r))
			save.Note = "save across call"
			store := rtl.NewStore(fifo, slot.Get(r)(), 8)
			load := rtl.NewLoad(fifo, slot.Get(r)(), 8)
			reload := rtl.NewAssign(r, rtl.RX(fifo))
			reload.Note = "reload after call"
			save.Line, store.Line, load.Line, reload.Line = i.Line, i.Line, i.Line, i.Line
			code = append(code, save, store)
			reloads = append(reloads, load, reload)
		}
		code = append(code, i)
		code = append(code, reloads...)
	}
	f.Code = code
	return patchFrame(f, oldFrame, f.Frame)
}

// newSlot grows the frame by one 8-byte slot and returns a builder
// for the slot's address.
func newSlot(f *rtl.Func) func() rtl.Expr {
	slot := (f.Frame + 7) &^ 7
	f.Frame = slot + 8
	return func() rtl.Expr {
		return rtl.B(rtl.Add, rtl.RX(rtl.RegSP), rtl.I(int64(slot)))
	}
}

// spanSet tracks the textual extents of loops whose FIFO is bound to a
// stream.
type spanSet []span

type span struct{ lo, hi int }

func (ss spanSet) contains(at int) bool {
	for _, s := range ss {
		if at >= s.lo && at <= s.hi {
			return true
		}
	}
	return false
}

func (ss spanSet) shift(from, by int) {
	for k := range ss {
		if ss[k].lo >= from {
			ss[k].lo += by
		}
		if ss[k].hi >= from {
			ss[k].hi += by
		}
	}
}

// fifoRegions holds, per FIFO number, the spans in which stack traffic
// must avoid that FIFO.
type fifoRegions map[int]spanSet

// pick returns the FIFO of class c that stack traffic at instruction
// index at uses: normally the secondary FIFO (r1/f1), which ordinary
// code never touches; inside the textual extent of a loop whose FIFO1
// is bound to a stream it falls back to FIFO0, and when both are
// stream-bound the compilation fails loudly rather than corrupting
// queue order.
func (fr fifoRegions) pick(c rtl.Class, at int) (rtl.Reg, error) {
	if !fr[rtl.FIFO1].contains(at) {
		return rtl.Reg{Class: c, N: rtl.FIFO1}, nil
	}
	if !fr[rtl.FIFO0].contains(at) {
		return rtl.Reg{Class: c, N: rtl.FIFO0}, nil
	}
	return rtl.Reg{}, fmt.Errorf("regalloc: stack access at %d inside loops streaming both %s FIFOs", at, c)
}

// shift moves every span boundary at or after from by by instructions.
func (fr fifoRegions) shift(from, by int) {
	fr[rtl.FIFO0].shift(from, by)
	fr[rtl.FIFO1].shift(from, by)
}

// streamRegions returns, per FIFO number, the spans in which stack
// traffic must avoid that FIFO: from each finite stream instruction of
// the class to the next jump-not-done (or the function's end), and for
// an infinite stream the instructions that can run while it is active,
// those reachable from its stream-in without passing a stop of its
// FIFO (streamReach).
func streamRegions(f *rtl.Func, c rtl.Class) (fifoRegions, error) {
	out := fifoRegions{rtl.FIFO0: nil, rtl.FIFO1: nil}
	var g *cfg.Graph
	for n, i := range f.Code {
		if (i.Kind != rtl.KStreamIn && i.Kind != rtl.KStreamOut) || i.MemClass != c {
			continue
		}
		if i.Kind == rtl.KStreamIn && infinite(i) {
			if g == nil {
				var err error
				if g, err = cfg.Build(f); err != nil {
					return nil, err
				}
			}
			var live []int
			streamReach(g, n, i.FIFO, func(k int) { live = append(live, k) })
			slices.Sort(live)
			for _, k := range live {
				ss := out[i.FIFO.N]
				if len(ss) > 0 && ss[len(ss)-1].hi >= k-1 {
					ss[len(ss)-1].hi = max(ss[len(ss)-1].hi, k)
				} else {
					out[i.FIFO.N] = append(ss, span{k, k})
				}
			}
			continue
		}
		hi := len(f.Code) - 1
		for k := n + 1; k < len(f.Code); k++ {
			j := f.Code[k]
			if j.Kind == rtl.KJumpNotDone {
				hi = k
				break
			}
		}
		out[i.FIFO.N] = append(out[i.FIFO.N], span{n, hi})
	}
	return out, nil
}

// pinnedRegs returns the virtual registers read or written where both
// FIFOs of their class carry streams (streamRegions).  Spilling one
// would put stack traffic there, with no FIFO left to carry it, so the
// allocator spills another register when it can.
func pinnedRegs(f *rtl.Func) (cfg.RegSet, error) {
	var pinned cfg.RegSet
	for c := range rtl.NumClasses {
		cls := rtl.Class(c)
		fr, err := streamRegions(f, cls)
		if err != nil {
			return cfg.RegSet{}, err
		}
		if len(fr[rtl.FIFO0]) == 0 || len(fr[rtl.FIFO1]) == 0 {
			continue
		}
		note := func(r rtl.Reg) {
			if r.IsVirtual() && r.Class == cls {
				pinned.Add(r)
			}
		}
		for n, i := range f.Code {
			if fr[rtl.FIFO0].contains(n) && fr[rtl.FIFO1].contains(n) {
				cfg.InstrUses(i, note)
				cfg.InstrDefs(i, note)
			}
		}
	}
	return pinned, nil
}

// patchFrame updates (or inserts) the prologue/epilogue stack-pointer
// adjustments after the frame grew.  A function that claims a frame
// but has no matching adjustment is an error: the new slot would lie
// beyond the allocated frame.
func patchFrame(f *rtl.Func, oldFrame, newFrame int) error {
	if oldFrame == newFrame {
		return nil
	}
	patched := false
	for _, i := range f.Code {
		if i.Kind != rtl.KAssign || i.Dst != rtl.RegSP {
			continue
		}
		b, ok := i.Src.(rtl.Bin)
		if !ok {
			continue
		}
		if rx, isReg := b.L.(rtl.RegX); !isReg || rx.Reg != rtl.RegSP {
			continue
		}
		c, isImm := b.R.(rtl.Imm)
		if !isImm || c.V != int64(oldFrame) {
			continue
		}
		i.Src = rtl.Bin{Op: b.Op, L: b.L, R: rtl.Imm{V: int64(newFrame)}}
		patched = true
	}
	if !patched {
		if oldFrame != 0 {
			return fmt.Errorf("regalloc: frame of %d bytes has no r29 := (r29 - %d) prologue to grow", oldFrame, oldFrame)
		}
		// Leaf function without a frame: insert fresh prologue and
		// epilogues.
		f.Insert(0, rtl.NewAssign(rtl.RegSP,
			rtl.B(rtl.Sub, rtl.RX(rtl.RegSP), rtl.I(int64(newFrame)))))
		for n := 0; n < len(f.Code); n++ {
			if f.Code[n].Kind == rtl.KRet {
				f.Insert(n, rtl.NewAssign(rtl.RegSP,
					rtl.B(rtl.Add, rtl.RX(rtl.RegSP), rtl.I(int64(newFrame)))))
				n++
			}
		}
	}
	return nil
}

func sortRegs(rs []rtl.Reg) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Class != rs[j].Class {
			return rs[i].Class < rs[j].Class
		}
		return rs[i].N < rs[j].N
	})
}
