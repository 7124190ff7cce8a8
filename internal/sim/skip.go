package sim

import (
	"math/bits"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// Idle skipping and SCU batching, the translated engine's two
// fast-forwards.  After each evaluated cycle, runTranslated recognizes
// two provable situations:
//
//   - A cycle with no forward progress at all.  The only state such a
//     cycle changes is the clock, the per-unit attribution, and the
//     per-cycle stall statistics; every blocking predicate compares a
//     stored ready time against the clock.  The machine therefore
//     replays the cycle verbatim until just before the earliest ready
//     time can flip a predicate (outer operands compare against now+1,
//     so the skip stops two cycles short), the watchdog deadline, or
//     MaxCycles — and the skipped cycles are charged in bulk to the
//     causes the observed cycle was charged to.  Attribution still sums
//     to cycles by construction.
//
//   - A cycle whose only progress is SCU stream transfers.  scuHorizon
//     proves a window in which the IFU and both execution units remain
//     pinned in their observed stall states and the store matcher and
//     memory server remain no-ops; within it only the per-element SCU
//     code is replayed (so memory contents, port arbitration, stats and
//     faults stay exact), and the three stalled units are bulk-charged.
//
// Everything else — any cycle where a unit issues, the IFU dispatches,
// or memory is served — is evaluated cycle by cycle, so the skips
// cannot drift from the reference engine on the hard parts.

const unboundedCycles = int64(1) << 62

// idleSkip fast-forwards over a stretch of fully stalled cycles.  The
// machine state is static except for the clock, so cycles now+1 ..
// target replicate the observed cycle exactly; they are charged in bulk
// and the clock jumps.  The cycle after the skip runs normally and is
// the one that observes the flipped predicate, fires the watchdog (that
// cycle is charged, so the skip stops at its eve), or trips MaxCycles
// (that cycle is not charged, so the skip may land on the bound).
// The slice limit caps the skip like MaxCycles does: the remainder of
// the stretch is re-proven and skipped by the next slice.
func (m *Machine) idleSkip(dLoad, dBranch, dIFU, slack, limit int64) {
	target := m.lastProgress + int64(m.cfg.MemLatency) + slack
	if ev := m.nextEvent(); ev > 0 {
		// Outer operands compare readyAt against now+1, so the last
		// cycle identical to the observed one is ev-2.
		target = minI64(target, ev-2)
	}
	target = minI64(target, m.cfg.MaxCycles)
	target = minI64(target, limit)
	k := target - m.now
	if k <= 0 {
		return
	}
	for u := range m.unitCounts {
		m.unitCounts[u].Counts[m.cycleCause[u]] += k
	}
	m.stats.LoadStalls += dLoad * k
	m.stats.BranchStalls += dBranch * k
	m.stats.IFUStallFull += dIFU * k
	m.now = target
}

// noteEvent feeds the next-event cache with a freshly stored ready
// time.  Every site that writes a future readyAt, FIFO-entry ready, or
// condition-code ready time calls it, so the cache never misses an
// event; consumed entries merely leave it stale-small, which only
// shortens an idle skip.  An unknown cache (0) stays unknown — the next
// nextEvent call rebuilds it by scanning.
func (m *Machine) noteEvent(t int64) {
	if t > m.now && m.nextEv != 0 && t < m.nextEv {
		m.nextEv = t
	}
}

// setReady stores a scalar register's result forwarding time, keeping
// the ready mask and the next-event cache fed.
func (m *Machine) setReady(c rtl.Class, n int, t int64) {
	m.readyAt[c][n] = t
	m.readyMask[c] |= 1 << uint(n)
	m.noteEvent(t)
}

// nextEvent returns a conservative bound on the earliest stored ready
// time strictly after now (0 when none exists): the cached bound when
// it is still in the future, else a full scan whose result re-seeds the
// cache.  These ready times are the only time-varying inputs of a
// no-progress cycle: scalar result forwarding times, in-flight FIFO
// data arrival times, and condition-code ready times.
func (m *Machine) nextEvent() int64 {
	if ev := m.nextEv; ev > m.now {
		if ev == unboundedCycles {
			return 0
		}
		return ev
	}
	ev := m.scanNextEvent()
	if ev == 0 {
		m.nextEv = unboundedCycles
	} else {
		m.nextEv = ev
	}
	return ev
}

// scanNextEvent derives the exact next event by scanning every stored
// ready time (the cache-rebuild slow path).
func (m *Machine) scanNextEvent() int64 {
	ev := unboundedCycles
	for c := 0; c < 2; c++ {
		// Visit only registers whose mask bit says a future readyAt may
		// be stored, clearing bits proven stale.
		for mask := m.readyMask[c]; mask != 0; mask &= mask - 1 {
			n := bits.TrailingZeros32(mask)
			if t := m.readyAt[c][n]; t > m.now {
				if t < ev {
					ev = t
				}
			} else {
				m.readyMask[c] &^= 1 << uint(n)
			}
		}
		for n := 0; n < 2; n++ {
			q := &m.inFIFO[c][n]
			for k := 0; k < q.n; k++ {
				e := q.at(k)
				if e.served && e.ready > m.now && e.ready < ev {
					ev = e.ready
				}
			}
		}
		cq := &m.ccFIFO[c]
		for k := 0; k < cq.n; k++ {
			if t := cq.at(k).ready; t > m.now && t < ev {
				ev = t
			}
		}
	}
	if ev == unboundedCycles {
		return 0
	}
	return ev
}

// batchSCU replays up to scuHorizon() cycles running only the clock,
// the port reset and the real per-element SCU code — memory mutation,
// port arbitration, stream bookkeeping, stats and fault semantics stay
// exact by construction.  The IFU and execution units are provably
// pinned in their observed stall states for the whole window, so they
// are bulk-charged to the observed causes, including for a cycle that
// faults partway (the reference charges every unit on a faulting cycle
// too).  Like an idle skip, the window ends by the watchdog deadline
// of the last progress seen when it opens: a stream that fills its
// FIFO and then stalls for good makes no further progress inside the
// window, and the cycles after it must reach the watchdog.
func (m *Machine) batchSCU(dLoad, dBranch, dIFU, slack, limit int64) error {
	k := minI64(m.scuHorizon(), m.cfg.MaxCycles-m.now)
	k = minI64(k, limit-m.now)
	k = minI64(k, m.lastProgress+int64(m.cfg.MemLatency)+slack-m.now)
	if k <= 0 {
		return nil
	}
	done := int64(0)
	for j := int64(0); j < k; j++ {
		m.now++
		m.portsLeft = m.cfg.MemPorts
		m.stepSCUs()
		done++
		if m.err != nil {
			break
		}
	}
	for u := unitIFU; u <= unitFEU; u++ {
		m.unitCounts[u].Counts[m.cycleCause[u]] += done
	}
	m.stats.LoadStalls += dLoad * done
	m.stats.BranchStalls += dBranch * done
	m.stats.IFUStallFull += dIFU * done
	return m.err
}

// scuHorizon proves how many further cycles the machine outside the
// SCUs stays exactly in its observed state: the store matcher and the
// memory server remain no-ops, no SCU finishes its stream, and the IFU
// and both execution units keep stalling for the same cause.  Returns
// 0 when no such window can be established — the engine then simply
// runs cycle by cycle.
func (m *Machine) scuHorizon() int64 {
	// Unserved scalar loads or queued writes could be served mid-window
	// (the memory server would make progress); streams alone never
	// create either.
	if m.unserved > 0 || m.writeQueue.n > 0 {
		return 0
	}
	k := unboundedCycles
	// Stream-side bounds: no SCU may complete inside the window (a
	// completing stream frees an SCU, unblocks the store matcher and
	// removes a feeder/drainer), and at most one stream may touch each
	// FIFO (the per-unit bounds below assume one element per FIFO per
	// cycle).
	var feeders, drainers [2][2]int
	for _, s := range m.scus {
		if !s.active || s.remaining == 0 {
			continue
		}
		if s.input {
			feeders[s.class][s.fifoN]++
		} else {
			drainers[s.class][s.fifoN]++
		}
		if s.remaining > 0 {
			k = minI64(k, s.remaining-1)
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			if feeders[c][n] > 1 || drainers[c][n] > 1 {
				return 0
			}
		}
	}
	// Execution units: the observed head hazard must keep holding.  A
	// hazard with no entry here is either timeless while nothing issues
	// and nothing dispatches (pending accesses, full CC/input FIFOs, an
	// issuing stream) or disproves the window.
	for c := 0; c < 2; c++ {
		q := &m.queues[c]
		if q.n == 0 {
			continue // idle unit: nothing dispatches, stays idle
		}
		d := q.at(0)
		h := m.issueHazard(d)
		switch h.kind {
		case hzPendingWriter, hzDestPending, hzCCFull, hzLoadFull, hzLoadStream:
			// Static while no unit issues and the IFU is stalled.
		case hzResultWait:
			// Clears when readyAt reaches now (now+1 for outer
			// operands); stop one cycle earlier than the tightest case.
			k = minI64(k, int64(h.a)-2-m.now)
		case hzFIFOEmpty:
			// With a feeder the missing entries arrive at most one per
			// cycle and each rides out MemLatency before turning ready;
			// the stall (morphing into in-flight, same cause and same
			// LoadStalls accounting) outlives the window below.
			if m.inputStreamIssuing(h.reg.Class, h.reg.N) {
				k = minI64(k, int64(h.b-h.a)+int64(m.cfg.MemLatency)-1)
			}
			// No feeder: the FIFO cannot gain entries; static.
		case hzFIFOInFlight:
			// Holds until the youngest of the entries the head consumes
			// turns ready.
			need := m.dec[d.idx].reads[h.reg.Class][h.reg.N]
			in := &m.inFIFO[h.reg.Class][h.reg.N]
			var maxReady int64
			for e := 0; e < need; e++ {
				maxReady = maxI64(maxReady, in.at(e).ready)
			}
			k = minI64(k, maxReady-1-m.now)
		case hzOutFull:
			// A draining output stream frees one slot per cycle at
			// most; without one the FIFO cannot drain at all.
			out := &m.outFIFO[h.reg.Class][h.reg.N]
			if drainers[h.reg.Class][h.reg.N] > 0 {
				k = minI64(k, int64(out.n)-int64(m.cfg.FIFODepth))
			}
		default:
			// hzNone: the unit would issue next cycle — no window.
			return 0
		}
	}
	// The IFU: bound by the observed stall cause.
	switch m.cycleCause[unitIFU] {
	case telemetry.CauseIdle:
		if !m.halted {
			return 0
		}
	case telemetry.CauseQueueFull:
		// Unit queues cannot drain while the units stall: static.
	case telemetry.CauseCCWait:
		i := m.img.Code[m.pc]
		cq := &m.ccFIFO[i.CCClass]
		if cq.n > 0 {
			k = minI64(k, cq.at(0).ready-1-m.now)
		}
		// Empty CC FIFO: no compare can execute; static.
	case telemetry.CauseResultLatency:
		switch m.img.Code[m.pc].Kind {
		case rtl.KCall:
			// Waiting on a pending LR access: static.
		case rtl.KRet:
			if !m.lrInFlight() {
				k = minI64(k, m.readyAt[rtl.Int][rtl.LR]-1-m.now)
			}
		case rtl.KPut:
			k = minI64(k, m.quietBound(m.dec[m.pc].srcRegs))
		default:
			return 0
		}
	case telemetry.CauseStreamBusy:
		dec := &m.dec[m.pc]
		k = minI64(k, m.quietBound(dec.baseRegs))
		k = minI64(k, m.quietBound(dec.countRegs))
		k = minI64(k, m.quietBound(dec.strideRegs))
	default:
		// Issued or Fetch would have been progress; anything else is
		// unexpected — no window.
		return 0
	}
	return k
}

// quietBound returns through how many further cycles regsQuietList over
// these registers is guaranteed to keep returning its observed value's
// blocking answer — i.e. a window in which no listed register *becomes*
// quiet.  Registers already quiet contribute no bound (some other
// register or condition is the blocker); statically un-quiet registers
// (pending accesses, an empty FIFO with no feeder) contribute no bound
// either.
func (m *Machine) quietBound(regs []rtl.Reg) int64 {
	b := unboundedCycles
	busy := m.inFlight()
	for _, r := range regs {
		if r.IsFIFO() {
			q := &m.inFIFO[r.Class][r.N]
			if q.n == 0 {
				if m.inputStreamIssuing(r.Class, r.N) {
					// The first fed entry can arrive next cycle and
					// turns ready MemLatency later.
					b = minI64(b, int64(m.cfg.MemLatency))
				}
				continue
			}
			if e := q.at(0); e.served && e.ready > m.now {
				b = minI64(b, e.ready-1-m.now)
			}
			continue
		}
		if busy&regBit(r) != 0 {
			continue // in-flight access: stays un-quiet while units stall
		}
		if t := m.readyAt[r.Class][r.N]; t > m.now {
			b = minI64(b, t-1-m.now)
		}
	}
	return b
}
