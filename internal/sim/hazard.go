package sim

import (
	"fmt"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// hazard is the single source of truth for why a queued instruction
// cannot issue.  stepUnit uses the telemetry cause to charge the stall
// cycle, and snapshot uses reason() to render the forensic message —
// one classification, two consumers, so the issue logic and the
// diagnostics can never drift apart.
type hzKind uint8

const (
	hzNone hzKind = iota
	// hzPendingWriter: an operand has an in-flight (dispatched, not yet
	// executed) writer on the other unit.
	hzPendingWriter
	// hzResultWait: an operand's producing instruction has issued but
	// its result has not traveled the forwarding distance.
	hzResultWait
	// hzDestPending: the destination has an in-flight earlier access
	// (WAW/WAR).
	hzDestPending
	// hzFIFOEmpty: an input FIFO read lacks arrived data.
	hzFIFOEmpty
	// hzFIFOInFlight: the FIFO head exists but its datum is still in
	// flight from memory.
	hzFIFOInFlight
	// hzCCFull: the condition-code FIFO the compare feeds is full.
	hzCCFull
	// hzOutFull: the output FIFO the assignment feeds is full.
	hzOutFull
	// hzLoadFull: the input FIFO the load targets is full.
	hzLoadFull
	// hzLoadStream: a scalar load must wait for an input stream still
	// issuing into the same FIFO.
	hzLoadStream
)

type hazard struct {
	kind hzKind
	reg  rtl.Reg // the register or FIFO involved
	cc   rtl.Class
	a, b int // detail operands (counts, cycle numbers)
}

// blocked reports whether the hazard actually holds the instruction.
func (h hazard) blocked() bool { return h.kind != hzNone }

// cause maps the hazard to its telemetry attribution bucket.
func (h hazard) cause() telemetry.Cause {
	switch h.kind {
	case hzPendingWriter, hzResultWait, hzDestPending:
		return telemetry.CauseResultLatency
	case hzFIFOEmpty, hzFIFOInFlight:
		return telemetry.CauseFIFOEmpty
	case hzCCFull:
		return telemetry.CauseCCWait
	case hzOutFull, hzLoadFull:
		return telemetry.CauseFIFOFull
	case hzLoadStream:
		return telemetry.CauseStreamBusy
	}
	return telemetry.CauseIssued
}

// reason renders the hazard as the diagnostic string embedded in
// Snapshot (the exact strings fault-containment tests golden against).
func (h hazard) reason() string {
	switch h.kind {
	case hzPendingWriter:
		return fmt.Sprintf("operand %s (in-flight writer)", h.reg)
	case hzResultWait:
		return fmt.Sprintf("operand %s (result not ready until cycle %d)", h.reg, h.a)
	case hzDestPending:
		return fmt.Sprintf("destination %s (in-flight access)", h.reg)
	case hzFIFOEmpty:
		return fmt.Sprintf("input FIFO %s (empty: %d of %d operands arrived)", h.reg, h.a, h.b)
	case hzFIFOInFlight:
		return fmt.Sprintf("input FIFO %s (head datum still in flight)", h.reg)
	case hzCCFull:
		return fmt.Sprintf("CC FIFO %s (full)", h.cc)
	case hzOutFull:
		return fmt.Sprintf("output FIFO %s (full)", h.reg)
	case hzLoadFull:
		return fmt.Sprintf("input FIFO %s (full)", h.reg)
	case hzLoadStream:
		return fmt.Sprintf("input FIFO %s (stream still issuing)", h.reg)
	}
	return ""
}

// issueHazard applies the issue checks in canIssue order and returns
// the first hazard holding the instruction back (hzNone when it can
// issue).  It is pure: stat side effects belong to the caller.
func (m *Machine) issueHazard(d *dispatched) hazard {
	i := m.img.Code[d.idx]
	dec := &m.dec[d.idx]
	w, a := m.queuedBefore(d.seq)
	// Register operands: cross-unit pending writes and forwarding
	// distances (outer operands forward one cycle earlier).
	for _, op := range dec.ops {
		r := op.reg
		if w&regBit(r) != 0 {
			return hazard{kind: hzPendingWriter, reg: r}
		}
		limit := m.now
		if op.outer {
			limit = m.now + 1
		}
		if m.readyAt[r.Class][r.N] > limit {
			return hazard{kind: hzResultWait, reg: r, a: int(m.readyAt[r.Class][r.N])}
		}
	}
	// Destination hazards (WAW and WAR against earlier accesses).
	if a&dec.defMask != 0 {
		return hazard{kind: hzDestPending, reg: dec.def}
	}
	// FIFO reads: enough arrived data at the head of each input FIFO.
	for _, fr := range dec.readList {
		fifo := rtl.Reg{Class: fr.cls, N: fr.n}
		q := &m.inFIFO[fr.cls][fr.n]
		if q.n < fr.need {
			return hazard{kind: hzFIFOEmpty, reg: fifo, a: q.n, b: fr.need}
		}
		for k := 0; k < fr.need; k++ {
			e := q.at(k)
			if !e.served || e.ready > m.now {
				return hazard{kind: hzFIFOInFlight, reg: fifo}
			}
		}
	}
	// Space checks.
	if dec.isCompare && m.ccFIFO[i.Dst.Class].n >= m.cfg.CCDepth {
		return hazard{kind: hzCCFull, cc: i.Dst.Class}
	}
	if dec.fifoWrite && m.outFIFO[i.Dst.Class][i.Dst.N].n >= m.cfg.FIFODepth {
		return hazard{kind: hzOutFull, reg: i.Dst}
	}
	if i.Kind == rtl.KLoad {
		fifo := rtl.Reg{Class: i.MemClass, N: i.FIFO.N}
		if m.inFIFO[i.MemClass][i.FIFO.N].n >= m.cfg.FIFODepth {
			return hazard{kind: hzLoadFull, reg: fifo}
		}
		// A scalar load request must not interleave with an input
		// stream still issuing into the same FIFO: its datum would land
		// between stream elements and corrupt the queue order.  The
		// hardware holds the load until the SCU has issued its last
		// element.
		if m.inputStreamIssuing(i.MemClass, i.FIFO.N) {
			return hazard{kind: hzLoadStream, reg: fifo}
		}
	}
	return hazard{}
}
