package sim

import (
	"fmt"
	"strings"

	"wmstream/internal/rtl"
)

// Typed simulator failures.  A hung or trapped run returns a
// *DeadlockError or *TrapError (match with errors.As) carrying a
// Snapshot of the machine, so a FIFO-ordering bug in generated code is
// diagnosable from the error value alone — which unit is blocked, on
// which FIFO, and what it was trying to issue.

// UnitState describes one execution unit (IEU or FEU) and the FIFO
// machinery of its register class at snapshot time.
type UnitState struct {
	Unit      string // "IEU" or "FEU"
	QueueLen  int    // dispatched instructions waiting to issue
	HeadInstr string // the instruction at the head of the queue ("" when empty)
	HeadPC    int    // its code address (-1 when empty)
	BlockedOn string // why the head cannot issue ("" when not blocked)
	// FIFO occupancies for this class: input/output data FIFOs 0 and 1,
	// the condition-code FIFO, and stores awaiting a datum per FIFO.
	InFIFO          [2]int
	OutFIFO         [2]int
	CCFIFO          int
	UnmatchedStores [2]int
}

// StreamState describes one active stream control unit.
type StreamState struct {
	Input     bool
	FIFO      string // FIFO register the stream feeds or drains (r0, f1, ...)
	Base      int64
	Stride    int64
	Remaining int64 // elements left; negative = infinite
}

// Snapshot is the machine state embedded in simulator errors.
type Snapshot struct {
	Cycle        int64
	PC           int
	Func         string // function containing PC
	NextInstr    string // instruction at PC ("" when out of range)
	Halted       bool
	IFUBlockedOn string // why the IFU is not dispatching ("" when it is)
	Units        [2]UnitState
	Streams      []StreamState
	WriteQueue   int // memory writes awaiting a port
	LastRetired  string
	LastUnit     string // unit that retired it
	LastProgress int64  // cycle of the last forward progress
}

// String renders the snapshot as a compact multi-line report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d pc=%d (%s) halted=%v lastProgress=%d writeQ=%d",
		s.Cycle, s.PC, s.Func, s.Halted, s.LastProgress, s.WriteQueue)
	if s.NextInstr != "" {
		fmt.Fprintf(&b, "\n  ifu: next %q", s.NextInstr)
		if s.IFUBlockedOn != "" {
			fmt.Fprintf(&b, " blocked on %s", s.IFUBlockedOn)
		}
	}
	for _, u := range s.Units {
		fmt.Fprintf(&b, "\n  %s: queue=%d in=[%d %d] out=[%d %d] cc=%d stores=[%d %d]",
			u.Unit, u.QueueLen, u.InFIFO[0], u.InFIFO[1], u.OutFIFO[0], u.OutFIFO[1],
			u.CCFIFO, u.UnmatchedStores[0], u.UnmatchedStores[1])
		if u.HeadInstr != "" {
			fmt.Fprintf(&b, " head=%q@%d", u.HeadInstr, u.HeadPC)
			if u.BlockedOn != "" {
				fmt.Fprintf(&b, " blocked on %s", u.BlockedOn)
			}
		}
	}
	for _, st := range s.Streams {
		dir := "out"
		if st.Input {
			dir = "in"
		}
		fmt.Fprintf(&b, "\n  stream %s %s: base=%d stride=%d remaining=%d",
			dir, st.FIFO, st.Base, st.Stride, st.Remaining)
	}
	if s.LastRetired != "" {
		fmt.Fprintf(&b, "\n  last retired: %q (%s)", s.LastRetired, s.LastUnit)
	}
	return b.String()
}

// DeadlockError reports that the machine made no forward progress for
// longer than the watchdog allows (Config.WatchdogSlack beyond the
// memory latency).
type DeadlockError struct {
	Snapshot Snapshot
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: %s", e.Snapshot.Cycle, e.Snapshot)
}

// TrapError reports a machine fault: a memory access out of range, a
// return to a bad address, an illegal instruction, or the MaxCycles
// bound.
type TrapError struct {
	Reason   string
	Snapshot Snapshot
}

func (e *TrapError) Error() string {
	return fmt.Sprintf("sim: cycle %d: %s: %s", e.Snapshot.Cycle, e.Reason, e.Snapshot)
}

// snapshot captures the machine's forensic state.
func (m *Machine) snapshot() Snapshot {
	s := Snapshot{
		Cycle:        m.now,
		PC:           m.pc,
		Halted:       m.halted,
		WriteQueue:   m.writeQueue.n,
		LastUnit:     m.lastUnit,
		LastProgress: m.lastProgress,
	}
	if m.lastRetired >= 0 && m.lastRetired < len(m.img.Code) {
		s.LastRetired = m.img.Code[m.lastRetired].String()
	}
	if m.pc >= 0 && m.pc < len(m.img.Code) {
		s.Func = m.img.FuncOf[m.pc]
		s.NextInstr = m.img.Code[m.pc].String()
		if !m.halted {
			s.IFUBlockedOn = m.ifuBlockReason()
		}
	}
	names := [2]string{rtl.Int: "IEU", rtl.Float: "FEU"}
	for c := 0; c < 2; c++ {
		u := UnitState{Unit: names[c], QueueLen: m.queues[c].n, HeadPC: -1, CCFIFO: m.ccFIFO[c].n}
		for n := 0; n < 2; n++ {
			u.InFIFO[n] = m.inFIFO[c][n].n
			u.OutFIFO[n] = m.outFIFO[c][n].n
			u.UnmatchedStores[n] = m.unmatchedStores[c][n].n
		}
		if m.queues[c].n > 0 {
			d := m.queues[c].at(0)
			u.HeadInstr = m.img.Code[d.idx].String()
			u.HeadPC = d.idx
			if h := m.issueHazard(d); h.blocked() {
				u.BlockedOn = h.reason()
			}
		}
		s.Units[c] = u
	}
	for _, sc := range m.scus {
		if !sc.active {
			continue
		}
		s.Streams = append(s.Streams, StreamState{
			Input:     sc.input,
			FIFO:      rtl.Reg{Class: sc.class, N: sc.fifoN}.String(),
			Base:      sc.base,
			Stride:    sc.stride,
			Remaining: sc.remaining,
		})
	}
	return s
}

// ifuBlockReason names what is stalling the fetch unit, mirroring the
// stall paths of stepIFU.
func (m *Machine) ifuBlockReason() string {
	if m.ifuWait > 0 {
		return fmt.Sprintf("multi-word fetch (%d cycles left)", m.ifuWait)
	}
	i := m.img.Code[m.pc]
	switch i.Kind {
	case rtl.KCondJump:
		q := &m.ccFIFO[i.CCClass]
		if q.n == 0 {
			return fmt.Sprintf("CC FIFO %s (empty)", i.CCClass)
		}
		if q.at(0).ready > m.now {
			return fmt.Sprintf("CC FIFO %s (head not ready)", i.CCClass)
		}
	case rtl.KCall, rtl.KRet:
		if m.lrInFlight() || m.readyAt[rtl.Int][rtl.LR] > m.now {
			return "link register (in-flight access)"
		}
	case rtl.KPut:
		if !m.regsQuietList(m.dec[m.pc].srcRegs) {
			return "operands (in-flight access or empty FIFO)"
		}
	case rtl.KStreamIn, rtl.KStreamOut:
		if m.queues[0].n > 0 || m.queues[1].n > 0 {
			return "unit queues draining before stream start"
		}
		if m.fifoBusy(i.MemClass, i.FIFO.N) {
			return fmt.Sprintf("FIFO %s busy before stream start", rtl.Reg{Class: i.MemClass, N: i.FIFO.N})
		}
		for _, s := range m.scus {
			if !s.active {
				return ""
			}
		}
		return "no free stream control unit"
	default:
		c := m.dec[m.pc].unit
		if m.queues[c].n >= m.cfg.QueueDepth {
			names := [2]string{rtl.Int: "IEU", rtl.Float: "FEU"}
			return fmt.Sprintf("%s queue (full)", names[c])
		}
	}
	return ""
}
