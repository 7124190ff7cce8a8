package sim

import (
	"math"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// operand is a register use together with its pipeline stage: outer
// operands (consumed by ALU2) forward one cycle earlier than inner
// operands (consumed by ALU1), per the dual-pipeline of Figure 2.
type operand struct {
	reg   rtl.Reg
	outer bool
}

// operandsOf classifies every register read by the instruction.
func operandsOf(i *rtl.Instr) []operand {
	var ops []operand
	add := func(e rtl.Expr, outer bool) {
		rtl.ExprRegs(e, func(r rtl.Reg) { ops = append(ops, operand{r, outer}) })
	}
	classify := func(e rtl.Expr) {
		switch x := e.(type) {
		case rtl.Bin:
			if l, ok := x.L.(rtl.Bin); ok {
				// (a op1 b) op2 c: a, b inner; c outer.
				add(l, false)
				add(x.R, true)
				return
			}
			if r, ok := x.R.(rtl.Bin); ok {
				add(x.L, true)
				add(r, false)
				return
			}
			// Single operation: routed through ALU2, operands outer.
			add(x.L, true)
			add(x.R, true)
		case rtl.Un:
			if _, ok := x.X.(rtl.RegX); ok {
				add(x.X, true)
			} else {
				add(x.X, false)
			}
		default:
			add(e, true)
		}
	}
	i.EachUseExpr(classify)
	return ops
}

// fifoReads counts the FIFO register reads of the instruction per
// (class, fifo number).
func fifoReads(i *rtl.Instr) [2][2]int {
	var counts [2][2]int
	i.EachUseExpr(func(e rtl.Expr) {
		rtl.ExprRegs(e, func(r rtl.Reg) {
			if r.IsFIFO() {
				counts[r.Class][r.N]++
			}
		})
	})
	return counts
}

func unitOf(i *rtl.Instr) rtl.Class {
	switch i.Kind {
	case rtl.KAssign:
		return i.Dst.Class
	case rtl.KLoad, rtl.KStore:
		// All loads and stores execute on the IEU (addresses are
		// integers); the datum travels through MemClass's FIFO.
		return rtl.Int
	}
	return rtl.Int
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (m *Machine) stepUnit(c rtl.Class) {
	u := unitIEU + int(c)
	q := &m.queues[c]
	if q.n == 0 {
		m.account(u, telemetry.CauseIdle, -1)
		return
	}
	d := q.at(0)
	if h := m.issueHazard(d); h.blocked() {
		cause := h.cause()
		if cause == telemetry.CauseFIFOEmpty {
			m.stats.LoadStalls++
		}
		m.account(u, cause, -1)
		return
	}
	// Copy out before executing: execute can push into this queue's
	// ring only via the IFU (it cannot), but at(0)'s pointer must not
	// outlive the pop in any case.
	dv := q.pop()
	m.account(u, telemetry.CauseIssued, dv.idx)
	m.execute(&dv, c)
	m.progress()
}

func (m *Machine) inputStreamIssuing(c rtl.Class, n int) bool {
	if m.activeSCUs == 0 {
		return false
	}
	for _, s := range m.scus {
		if s.active && s.input && s.class == c && s.fifoN == n && s.remaining != 0 {
			return true
		}
	}
	return false
}

// entry builds the queue entry for dispatching code index idx as seq.
func (m *Machine) entry(idx int, seq int64) dispatched {
	dec := &m.dec[idx]
	return dispatched{idx: idx, seq: seq, wmask: dec.defMask, amask: dec.readMask | dec.defMask}
}

// queuedBefore returns the registers written (w) and accessed (a) by
// the queued entries dispatched before seq.  Each queue is in seq
// order, so each scan stops at its first entry not older than seq.  For
// a unit's head that is the head itself: since each unit issues in
// order, everything older than the head sits in the other unit's queue.
// A head reading a register in w has an in-flight writer; a head
// defining a register in a has an in-flight access to its destination.
// queuedBefore(math.MaxInt64) covers every queued entry.
func (m *Machine) queuedBefore(seq int64) (w, a uint64) {
	for c := range m.queues {
		q := &m.queues[c]
		for k := 0; k < q.n; k++ {
			e := q.at(k)
			if e.seq >= seq {
				break
			}
			w |= e.wmask
			a |= e.amask
		}
	}
	return w, a
}

// inFlight returns the registers some queued entry reads or writes.
func (m *Machine) inFlight() uint64 {
	_, a := m.queuedBefore(math.MaxInt64)
	return a
}

// execute performs the instruction's effect at issue time.
func (m *Machine) execute(d *dispatched, c rtl.Class) {
	i := m.img.Code[d.idx]
	dec := &m.dec[d.idx]
	m.profTick(d.idx)
	m.stats.Instructions++
	m.lastRetired = d.idx
	if c == rtl.Int {
		m.stats.IntIssued++
		m.lastUnit = "IEU"
	} else {
		m.stats.FloatIssued++
		m.lastUnit = "FEU"
	}
	switch i.Kind {
	case rtl.KAssign:
		val, ok := m.evalProg(dec.src)
		if !ok {
			return
		}
		dst := i.Dst
		switch {
		case dec.isCompare:
			m.ccFIFO[dst.Class].push(ccEntry{val != 0, m.now + 1})
			m.noteEvent(m.now + 1)
		case dst.IsZero():
			// Discarded.
		case dst.IsFIFO():
			m.outFIFO[dst.Class][dst.N].push(val)
		default:
			m.regs[dst.Class][dst.N] = val
			m.setReady(dst.Class, dst.N, m.now+dec.latency)
		}
	case rtl.KLoad:
		addr, ok := m.evalProg(dec.addr)
		if !ok {
			return
		}
		m.memSeq++
		m.inFIFO[i.MemClass][i.FIFO.N].push(
			fifoEntry{addr: int64(addr), size: i.MemSize, seq: m.memSeq})
		m.unserved++
	case rtl.KStore:
		addr, ok := m.evalProg(dec.addr)
		if !ok {
			return
		}
		m.memSeq++
		m.unmatchedStores[i.MemClass][i.FIFO.N].push(
			storeReq{int64(addr), i.MemSize, m.memSeq})
	default:
		m.fail("unit cannot execute %s", i)
	}
}
