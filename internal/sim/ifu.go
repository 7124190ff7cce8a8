package sim

import (
	"fmt"
	"math"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// maxZeroCostOps bounds the number of zero-cost control transfers the
// IFU performs per cycle (a self-jump would otherwise spin forever in
// simulated zero time).
const maxZeroCostOps = 64

// stepIFU advances the instruction fetch unit: it executes control
// transfers itself (unconditional branches free, conditional branches
// consuming condition codes, stream-count branches, calls and returns)
// and dispatches at most one instruction per cycle into a unit queue.
// Every cycle is charged to one telemetry cause; a cycle that executed
// any zero-cost op counts as issued even when a later op in the same
// cycle stalled.
func (m *Machine) stepIFU() {
	m.account(unitIFU, m.ifuCycle(), -1)
}

func (m *Machine) ifuCycle() telemetry.Cause {
	if m.halted {
		return telemetry.CauseIdle
	}
	if m.ifuWait > 0 {
		m.ifuWait--
		m.progress()
		return telemetry.CauseFetch
	}
	did := false
	stall := func(c telemetry.Cause) telemetry.Cause {
		if did {
			return telemetry.CauseIssued
		}
		return c
	}
	for zc := 0; zc < maxZeroCostOps; zc++ {
		if m.pc < 0 || m.pc >= len(m.img.Code) {
			m.fail("pc out of range: %d", m.pc)
			return stall(telemetry.CauseIdle)
		}
		i := m.img.Code[m.pc]
		target := m.img.Target[m.pc]
		switch i.Kind {
		case rtl.KJump:
			m.profTick(m.pc)
			m.pc = target
			m.stats.Branches++
			m.progress()
			did = true
			continue

		case rtl.KCondJump:
			q := &m.ccFIFO[i.CCClass]
			if q.n == 0 || q.at(0).ready > m.now {
				m.stats.BranchStalls++
				return stall(telemetry.CauseCCWait)
			}
			cc := q.pop()
			m.profTick(m.pc)
			if cc.val == i.Sense {
				m.pc = target
			} else {
				m.pc++
			}
			m.stats.Branches++
			m.progress()
			did = true
			continue

		case rtl.KJumpNotDone:
			m.profTick(m.pc)
			cnt := m.streamIter[i.FIFO.Class][i.FIFO.N]
			if cnt < 0 { // infinite stream: always taken
				m.pc = target
			} else if cnt > 1 {
				m.streamIter[i.FIFO.Class][i.FIFO.N] = cnt - 1
				m.pc = target
			} else {
				m.streamIter[i.FIFO.Class][i.FIFO.N] = 0
				m.pc++
			}
			m.stats.Branches++
			m.progress()
			did = true
			continue

		case rtl.KCall:
			// The IFU writes the link register; wait out any in-flight
			// access to it.
			if m.lrInFlight() {
				return stall(telemetry.CauseResultLatency)
			}
			m.profTick(m.pc)
			m.regs[rtl.Int][rtl.LR] = uint64(m.pc + 1)
			m.readyAt[rtl.Int][rtl.LR] = m.now
			m.pc = target
			m.progress()
			did = true
			continue

		case rtl.KRet:
			if m.lrInFlight() || m.readyAt[rtl.Int][rtl.LR] > m.now {
				return stall(telemetry.CauseResultLatency)
			}
			ret := int(m.regs[rtl.Int][rtl.LR])
			if ret < 0 || ret >= len(m.img.Code) {
				m.fail("return to bad address %d", ret)
				return stall(telemetry.CauseIdle)
			}
			m.profTick(m.pc)
			m.pc = ret
			m.progress()
			did = true
			continue

		case rtl.KHalt:
			m.profTick(m.pc)
			m.halted = true
			m.progress()
			return telemetry.CauseIssued

		case rtl.KPut:
			dec := &m.dec[m.pc]
			if !m.regsQuietList(dec.srcRegs) {
				return stall(telemetry.CauseResultLatency)
			}
			val, ok := m.evalProg(dec.src)
			if !ok {
				return stall(telemetry.CauseIdle)
			}
			m.profTick(m.pc)
			m.put(i.Fmt, val, dec.srcClass)
			m.pc++
			m.stats.Dispatched++
			m.stats.Instructions++
			m.progress()
			return telemetry.CauseIssued // consumes the dispatch slot

		case rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop:
			if !m.startStream(i, &m.dec[m.pc]) {
				return stall(telemetry.CauseStreamBusy)
			}
			m.profTick(m.pc)
			m.pc++
			m.stats.Dispatched++
			m.stats.Instructions++
			m.progress()
			return telemetry.CauseIssued

		default:
			// Dispatch into a unit queue.
			dec := &m.dec[m.pc]
			c := dec.unit
			if m.queues[c].n >= m.cfg.QueueDepth {
				m.stats.IFUStallFull++
				return stall(telemetry.CauseQueueFull)
			}
			m.seq++
			m.queues[c].push(m.entry(m.pc, m.seq))
			m.pc++
			m.stats.Dispatched++
			m.ifuWait = dec.words - 1
			m.progress()
			return telemetry.CauseIssued
		}
	}
	return telemetry.CauseIssued // zero-cost budget exhausted mid-cycle
}

// regsQuietList reports whether every listed register is free of
// in-flight accesses and ready (the IFU synchronizes on its operands).
// The lists come from the decode cache with zero registers filtered.
func (m *Machine) regsQuietList(regs []rtl.Reg) bool {
	busy := m.inFlight()
	for _, r := range regs {
		if r.IsFIFO() {
			q := &m.inFIFO[r.Class][r.N]
			if q.n == 0 || !q.at(0).served || q.at(0).ready > m.now {
				return false
			}
			continue
		}
		if busy&regBit(r) != 0 || m.readyAt[r.Class][r.N] > m.now {
			return false
		}
	}
	return true
}

// lrInFlight reports whether a queued entry accesses the link
// register, which a call must wait out before writing it.
func (m *Machine) lrInFlight() bool { return m.inFlight()&regBit(rtl.RegLR) != 0 }

// startStream activates an SCU for a stream instruction (or stops one).
// Returns false when the IFU must stall (operands not ready or no SCU
// free).
func (m *Machine) startStream(i *rtl.Instr, dec *decoded) bool {
	if i.Kind == rtl.KStreamStop {
		for _, s := range m.scus {
			if s.active && s.class == i.FIFO.Class && s.fifoN == i.FIFO.N {
				m.deactivate(s)
			}
		}
		// Discard prefetched stream data the loop never consumed.
		// Scalar entries (seq != 0) belong to in-flight load/dequeue
		// pairs and survive, which makes a stop on an inactive stream
		// harmless — the compiler may place stops on exit paths that
		// can also be reached without ever starting the stream.
		q := &m.inFIFO[i.FIFO.Class][i.FIFO.N]
		for k, live := 0, q.n; k < live; k++ {
			e := q.pop()
			if e.seq != 0 {
				q.push(e)
			}
		}
		m.streamIter[i.FIFO.Class][i.FIFO.N] = 0
		return true
	}
	if !m.regsQuietList(dec.baseRegs) || !m.regsQuietList(dec.countRegs) ||
		!m.regsQuietList(dec.strideRegs) {
		return false
	}
	// Program-order discipline: instructions dispatched before this
	// stream may still sit unexecuted in the unit queues; activating the
	// stream while an earlier same-FIFO access is pending would
	// interleave stream data with scalar data, and activating before
	// earlier loads have been sequenced breaks the load-vs-stream-store
	// ordering.  Hold the stream until both queues drain (a few cycles
	// at loop entry) and the FIFO has no leftover scalar traffic.
	if m.queues[0].n > 0 || m.queues[1].n > 0 {
		return false
	}
	if m.fifoBusy(i.MemClass, i.FIFO.N) {
		return false
	}
	var unit *scu
	for _, s := range m.scus {
		if !s.active {
			unit = s
			break
		}
	}
	if unit == nil {
		return false
	}
	base, ok := m.evalProg(dec.base)
	if !ok {
		return false
	}
	count, ok := m.evalProg(dec.count)
	if !ok {
		return false
	}
	stride, ok := m.evalProg(dec.stride)
	if !ok {
		return false
	}
	unit.active = true
	m.activeSCUs++
	unit.input = i.Kind == rtl.KStreamIn
	unit.class = i.MemClass
	unit.fifoN = i.FIFO.N
	unit.base = int64(base)
	unit.stride = int64(stride)
	unit.size = i.MemSize
	unit.remaining = int64(count)
	if !unit.input {
		m.outStreams[unit.class][unit.fifoN]++
	}
	m.streamIter[i.MemClass][i.FIFO.N] = int64(count)
	m.stats.StreamsOpened++
	return true
}

// fifoBusy reports whether any queued (dispatched, unexecuted)
// instruction references FIFO (c, n) — as a load/store channel or as a
// register operand/destination.
func (m *Machine) fifoBusy(c rtl.Class, n int) bool {
	for u := 0; u < 2; u++ {
		q := &m.queues[u]
		for k := 0; k < q.n; k++ {
			if m.dec[q.at(k).idx].busyFIFO[c][n] {
				return true
			}
		}
	}
	// Unserved or unconsumed scalar entries already in the input FIFO
	// also belong to earlier instructions; wait for them too.
	in := &m.inFIFO[c][n]
	for k := 0; k < in.n; k++ {
		if in.at(k).seq != 0 {
			return true
		}
	}
	return m.unmatchedStores[c][n].n > 0
}

func (m *Machine) put(format byte, val uint64, c rtl.Class) {
	if m.cfg.Output == nil {
		return
	}
	switch format {
	case 'c':
		fmt.Fprintf(m.cfg.Output, "%c", byte(val))
	case 'i':
		fmt.Fprintf(m.cfg.Output, "%d", int64(val))
	case 'd':
		f := math.Float64frombits(val)
		if c == rtl.Int {
			f = float64(int64(val))
		}
		fmt.Fprintf(m.cfg.Output, "%g", f)
	}
}
