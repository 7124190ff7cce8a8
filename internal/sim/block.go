package sim

import (
	"fmt"
	"math"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// The closure compilers of the translated engine.  Each instruction of
// an image is lowered once into specialized Go closures — the unit-side
// issue function (hazard checks fused with the instruction's effect)
// and the IFU-side step function (control transfers and dispatch) —
// and each expression program into a closure tree, so the hot loop
// performs no decode, no expression interpretation, no hazard-kind
// dispatch and no map lookups.  The closures capture only translation
// data (code indices, operand lists, pre-formatted fault messages);
// all machine state is reached through the *Machine parameter, which
// is what lets one translation serve every machine running the image.
//
// Semantics are replicated check for check from units.go/ifu.go/eval.go:
// the same hazard order, the same stall causes, the same stat and
// progress updates, the same lazy fault messages.  The differential
// matrix in internal/bench holds the translated engine bit-identical
// to the reference interpreter.

// superblock is a translation unit: a maximal straight-line run of
// instructions entered only at its head.  Blocks start at the image
// entry and at every branch target, and are extended across
// fall-through edges (conditional branches, stream-count branches and
// calls all fall through), ending only at an unconditional control
// break (jump, return, halt) or the next leader.
type superblock struct {
	start, end int // code index range [start, end)
}

// superblocks partitions the code array.
func superblocks(img *Image) []superblock {
	n := len(img.Code)
	if n == 0 {
		return nil
	}
	leader := make([]bool, n)
	leader[0] = true
	if img.Entry >= 0 && img.Entry < n {
		leader[img.Entry] = true
	}
	for k, i := range img.Code {
		if t := img.Target[k]; t >= 0 && t < n {
			leader[t] = true
		}
		// The instruction after an unconditional break starts a block
		// (it is reachable only as a branch target or dead code; either
		// way it cannot extend the previous block).
		switch i.Kind {
		case rtl.KJump, rtl.KRet, rtl.KHalt:
			if k+1 < n {
				leader[k+1] = true
			}
		}
	}
	var blocks []superblock
	start := 0
	for k := 1; k < n; k++ {
		if leader[k] {
			blocks = append(blocks, superblock{start, k})
			start = k
		}
	}
	return append(blocks, superblock{start, n})
}

// evalFn is a compiled expression program: it returns the raw result
// bits, or false after recording a machine fault (exactly like
// Machine.evalProg, whose fault messages it reuses).
type evalFn func(m *Machine) (uint64, bool)

// compileEval lowers a postfix expression program into a closure tree.
// Operand order (and therefore FIFO dequeue order and lazy-fault order)
// is the compiled left-to-right order, matching the interpreter.
func compileEval(p eprog) evalFn {
	if len(p) == 0 {
		return nil
	}
	interp := func() evalFn { // defensive fallback; never taken for well-formed programs
		prog := p
		return func(m *Machine) (uint64, bool) { return m.evalProg(prog) }
	}
	var stack []evalFn
	for k := range p {
		s := p[k]
		switch s.op {
		case eoConst:
			bits := s.bits
			stack = append(stack, func(m *Machine) (uint64, bool) { return bits, true })
		case eoReg:
			cls, n := s.cls, s.n
			stack = append(stack, func(m *Machine) (uint64, bool) { return m.regs[cls][n], true })
		case eoFIFO:
			cls, n, msg := s.cls, s.n, s.msg
			stack = append(stack, func(m *Machine) (uint64, bool) {
				q := &m.inFIFO[cls][n]
				if q.n == 0 || !q.at(0).served || q.at(0).ready > m.now {
					m.fail("%s", msg)
					return 0, false
				}
				return q.pop().val, true
			})
		case eoBinInt, eoBinFloat, eoBinFloatRel:
			if len(stack) < 2 {
				return interp()
			}
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if s.op == eoBinInt {
				stack = append(stack, makeBinInt(s.rop, s.msg, a, b))
			} else {
				stack = append(stack, makeBinFloat(s.op == eoBinFloatRel, s.rop, s.msg, a, b))
			}
		case eoUnInt, eoUnFloat:
			if len(stack) < 1 {
				return interp()
			}
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			stack = append(stack, makeUnary(s.op, s.rop, s.msg, a))
		case eoCvtIF:
			if len(stack) < 1 {
				return interp()
			}
			a := stack[len(stack)-1]
			stack[len(stack)-1] = func(m *Machine) (uint64, bool) {
				v, ok := a(m)
				if !ok {
					return 0, false
				}
				return math.Float64bits(float64(int64(v))), true
			}
		case eoCvtFI:
			if len(stack) < 1 {
				return interp()
			}
			a := stack[len(stack)-1]
			stack[len(stack)-1] = func(m *Machine) (uint64, bool) {
				v, ok := a(m)
				if !ok {
					return 0, false
				}
				return uint64(int64(math.Float64frombits(v))), true
			}
		default: // eoFail: an operand-shaped node that faults when reached
			msg := s.msg
			stack = append(stack, func(m *Machine) (uint64, bool) {
				m.fail("%s", msg)
				return 0, false
			})
		}
	}
	if len(stack) != 1 {
		return interp()
	}
	return stack[0]
}

// compileEvalOrInterp compiles the program, falling back to the
// interpreter closure for programs compileEval declines (empty or
// malformed — the interpreter then reproduces the reference behavior,
// including its fault messages, exactly).
func compileEvalOrInterp(p eprog) evalFn {
	if f := compileEval(p); f != nil {
		return f
	}
	prog := p
	return func(m *Machine) (uint64, bool) { return m.evalProg(prog) }
}

// makeBinInt specializes an integer binary operator.  Two's-complement
// identities make the uint64 arithmetic bit-identical to the
// interpreter's int64 round trip; the failing operators (division,
// shifts) keep the generic evaluator and its fault message.
func makeBinInt(op rtl.Op, msg string, a, b evalFn) evalFn {
	bin := func(f func(x, y uint64) uint64) evalFn {
		return func(m *Machine) (uint64, bool) {
			x, ok := a(m)
			if !ok {
				return 0, false
			}
			y, ok := b(m)
			if !ok {
				return 0, false
			}
			return f(x, y), true
		}
	}
	switch op {
	case rtl.Add:
		return bin(func(x, y uint64) uint64 { return x + y })
	case rtl.Sub:
		return bin(func(x, y uint64) uint64 { return x - y })
	case rtl.Mul:
		return bin(func(x, y uint64) uint64 { return x * y })
	case rtl.And:
		return bin(func(x, y uint64) uint64 { return x & y })
	case rtl.Or:
		return bin(func(x, y uint64) uint64 { return x | y })
	case rtl.Xor:
		return bin(func(x, y uint64) uint64 { return x ^ y })
	case rtl.Eq:
		return bin(func(x, y uint64) uint64 { return b2u(x == y) })
	case rtl.Ne:
		return bin(func(x, y uint64) uint64 { return b2u(x != y) })
	case rtl.Lt:
		return bin(func(x, y uint64) uint64 { return b2u(int64(x) < int64(y)) })
	case rtl.Le:
		return bin(func(x, y uint64) uint64 { return b2u(int64(x) <= int64(y)) })
	case rtl.Gt:
		return bin(func(x, y uint64) uint64 { return b2u(int64(x) > int64(y)) })
	case rtl.Ge:
		return bin(func(x, y uint64) uint64 { return b2u(int64(x) >= int64(y)) })
	default: // Div, Rem, Shl, Shr: may fault
		return func(m *Machine) (uint64, bool) {
			x, ok := a(m)
			if !ok {
				return 0, false
			}
			y, ok := b(m)
			if !ok {
				return 0, false
			}
			v, ok := rtl.EvalIntOp(op, int64(x), int64(y))
			if !ok {
				m.fail("%s", msg)
				return 0, false
			}
			return uint64(v), true
		}
	}
}

// makeBinFloat specializes a floating binary operator (rel: relational,
// producing an integer 0/1).
func makeBinFloat(rel bool, op rtl.Op, msg string, a, b evalFn) evalFn {
	bin := func(f func(x, y float64) uint64) evalFn {
		return func(m *Machine) (uint64, bool) {
			x, ok := a(m)
			if !ok {
				return 0, false
			}
			y, ok := b(m)
			if !ok {
				return 0, false
			}
			return f(math.Float64frombits(x), math.Float64frombits(y)), true
		}
	}
	switch op {
	case rtl.Add:
		return bin(func(x, y float64) uint64 { return math.Float64bits(x + y) })
	case rtl.Sub:
		return bin(func(x, y float64) uint64 { return math.Float64bits(x - y) })
	case rtl.Mul:
		return bin(func(x, y float64) uint64 { return math.Float64bits(x * y) })
	case rtl.Eq:
		return bin(func(x, y float64) uint64 { return b2u(x == y) })
	case rtl.Ne:
		return bin(func(x, y float64) uint64 { return b2u(x != y) })
	case rtl.Lt:
		return bin(func(x, y float64) uint64 { return b2u(x < y) })
	case rtl.Le:
		return bin(func(x, y float64) uint64 { return b2u(x <= y) })
	case rtl.Gt:
		return bin(func(x, y float64) uint64 { return b2u(x > y) })
	case rtl.Ge:
		return bin(func(x, y float64) uint64 { return b2u(x >= y) })
	default: // Div (faults on zero) and anything unexpected
		return func(m *Machine) (uint64, bool) {
			x, ok := a(m)
			if !ok {
				return 0, false
			}
			y, ok := b(m)
			if !ok {
				return 0, false
			}
			v, ok := rtl.EvalFloatOp(op, math.Float64frombits(x), math.Float64frombits(y))
			if !ok {
				m.fail("%s", msg)
				return 0, false
			}
			if rel {
				return uint64(int64(v)), true
			}
			return math.Float64bits(v), true
		}
	}
}

// makeUnary specializes a unary operator.
func makeUnary(op evalOp, rop rtl.Op, msg string, a evalFn) evalFn {
	if op == eoUnInt && rop == rtl.Neg {
		return func(m *Machine) (uint64, bool) {
			v, ok := a(m)
			if !ok {
				return 0, false
			}
			return -v, true
		}
	}
	if op == eoUnInt && rop == rtl.Not {
		return func(m *Machine) (uint64, bool) {
			v, ok := a(m)
			if !ok {
				return 0, false
			}
			return ^v, true
		}
	}
	if op == eoUnFloat && rop == rtl.Neg {
		return func(m *Machine) (uint64, bool) {
			v, ok := a(m)
			if !ok {
				return 0, false
			}
			return math.Float64bits(-math.Float64frombits(v)), true
		}
	}
	isInt := op == eoUnInt
	return func(m *Machine) (uint64, bool) {
		v, ok := a(m)
		if !ok {
			return 0, false
		}
		if isInt {
			r, ok := rtl.EvalUnInt(rop, int64(v))
			if !ok {
				m.fail("%s", msg)
				return 0, false
			}
			return uint64(r), true
		}
		r, ok := rtl.EvalUnFloat(rop, math.Float64frombits(v))
		if !ok {
			m.fail("%s", msg)
			return 0, false
		}
		return math.Float64bits(r), true
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// issueFn is the translated unit-side step for one instruction: called
// with the sequence number of the instruction at the head of its unit
// queue, it either returns the stall cause holding it back, or pops,
// executes, and returns CauseIssued — replicating issueHazard +
// stepUnit's issue path + execute, with the hazard→cause mapping
// resolved at translation time.
type issueFn func(m *Machine, seq int64) telemetry.Cause

// opCheck is a pre-extracted scalar operand forwarding check.
type opCheck struct {
	cls   rtl.Class
	n     int
	outer bool
}

// makeIssue lowers one dispatched-kind instruction.  The hot shapes —
// scalar instructions, loads, single-FIFO-read instructions — get
// closures that test only the hazards they can hit; every other shape
// takes the general closure.  All share the issue body.
func makeIssue(idx int, i *rtl.Instr, dec *decoded) issueFn {
	unit := int(dec.unit)
	ops := make([]opCheck, len(dec.ops))
	for k, op := range dec.ops {
		ops[k] = opCheck{op.reg.Class, op.reg.N, op.outer}
	}
	readList := append([]fifoNeed(nil), dec.readList...)
	readMask, defMask := dec.readMask, dec.defMask
	isCompare, fifoWrite := dec.isCompare, dec.fifoWrite
	dstCls, dstN := i.Dst.Class, i.Dst.N
	isLoad := i.Kind == rtl.KLoad
	loadCls, loadN := i.MemClass, i.FIFO.N
	isInt := dec.unit == rtl.Int
	unitName := "IEU"
	if !isInt {
		unitName = "FEU"
	}
	exec := makeExec(i, dec)

	// issue is the hazard-free path: pop before executing, execute,
	// then progress — even when the execution faults (matching
	// stepUnit).
	issue := func(m *Machine) telemetry.Cause {
		m.queues[unit].pop()
		m.profTick(idx)
		m.stats.Instructions++
		m.lastRetired = idx
		if isInt {
			m.stats.IntIssued++
		} else {
			m.stats.FloatIssued++
		}
		m.lastUnit = unitName
		exec(m)
		m.progress()
		return telemetry.CauseIssued
	}

	// scalars replicates the register hazards: no older queued entry
	// writes an operand or accesses the destination, and every operand
	// has traveled its forwarding distance (outer operands forward one
	// cycle earlier).  Each maps to CauseResultLatency and none has a
	// side effect, so they are tested together.
	scalars := func(m *Machine, seq int64) bool {
		if w, a := m.queuedBefore(seq); w&readMask|a&defMask != 0 {
			return false
		}
		now := m.now
		for k := range ops {
			op := &ops[k]
			limit := now
			if op.outer {
				limit++
			}
			if m.readyAt[op.cls][op.n] > limit {
				return false
			}
		}
		return true
	}

	if !isCompare && !fifoWrite {
		// Loads: scalar address operands, then input-FIFO space, then
		// the stream-unit conflict.
		if isLoad && len(readList) == 0 {
			return func(m *Machine, seq int64) telemetry.Cause {
				if !scalars(m, seq) {
					return telemetry.CauseResultLatency
				}
				if m.inFIFO[loadCls][loadN].n >= m.cfg.FIFODepth {
					return telemetry.CauseFIFOFull
				}
				if m.inputStreamIssuing(loadCls, loadN) {
					return telemetry.CauseStreamBusy
				}
				return issue(m)
			}
		}
		// One FIFO read of one element (stores of streamed data, and
		// assignments consuming a single FIFO operand).
		if !isLoad && len(readList) == 1 && readList[0].need == 1 {
			rc, rn := readList[0].cls, readList[0].n
			return func(m *Machine, seq int64) telemetry.Cause {
				if !scalars(m, seq) {
					return telemetry.CauseResultLatency
				}
				q := &m.inFIFO[rc][rn]
				if q.n == 0 {
					return telemetry.CauseFIFOEmpty
				}
				if en := q.at(0); !en.served || en.ready > m.now {
					return telemetry.CauseFIFOEmpty
				}
				return issue(m)
			}
		}
	}

	if len(readList) == 0 && !isCompare && !fifoWrite && !isLoad {
		if readMask|defMask == 0 {
			return func(m *Machine, seq int64) telemetry.Cause { return issue(m) }
		}
		return func(m *Machine, seq int64) telemetry.Cause {
			if !scalars(m, seq) {
				return telemetry.CauseResultLatency
			}
			return issue(m)
		}
	}

	return func(m *Machine, seq int64) telemetry.Cause {
		now := m.now
		// Scalar operands and destination: in-flight accesses and
		// forwarding distances.
		if !scalars(m, seq) {
			return telemetry.CauseResultLatency
		}
		// FIFO reads: enough arrived data at the head of each FIFO.
		for k := range readList {
			fr := &readList[k]
			q := &m.inFIFO[fr.cls][fr.n]
			if q.n < fr.need {
				return telemetry.CauseFIFOEmpty
			}
			for e := 0; e < fr.need; e++ {
				en := q.at(e)
				if !en.served || en.ready > now {
					return telemetry.CauseFIFOEmpty
				}
			}
		}
		// Space checks.
		if isCompare && m.ccFIFO[dstCls].n >= m.cfg.CCDepth {
			return telemetry.CauseCCWait
		}
		if fifoWrite && m.outFIFO[dstCls][dstN].n >= m.cfg.FIFODepth {
			return telemetry.CauseFIFOFull
		}
		if isLoad {
			if m.inFIFO[loadCls][loadN].n >= m.cfg.FIFODepth {
				return telemetry.CauseFIFOFull
			}
			if m.inputStreamIssuing(loadCls, loadN) {
				return telemetry.CauseStreamBusy
			}
		}
		return issue(m)
	}
}

// makeExec lowers the instruction's effect (the body of execute), with
// the destination variant resolved at translation time.
func makeExec(i *rtl.Instr, dec *decoded) func(m *Machine) {
	switch i.Kind {
	case rtl.KAssign:
		eval := compileEvalOrInterp(dec.src)
		switch {
		case dec.isCompare:
			dstCls := i.Dst.Class
			return func(m *Machine) {
				val, ok := eval(m)
				if !ok {
					return
				}
				m.ccFIFO[dstCls].push(ccEntry{val != 0, m.now + 1})
				m.noteEvent(m.now + 1)
			}
		case i.Dst.IsZero():
			return func(m *Machine) { eval(m) }
		case i.Dst.IsFIFO():
			dstCls, dstN := i.Dst.Class, i.Dst.N
			return func(m *Machine) {
				val, ok := eval(m)
				if !ok {
					return
				}
				m.outFIFO[dstCls][dstN].push(val)
			}
		default:
			dstCls, dstN, latency := i.Dst.Class, i.Dst.N, dec.latency
			return func(m *Machine) {
				val, ok := eval(m)
				if !ok {
					return
				}
				m.regs[dstCls][dstN] = val
				m.setReady(dstCls, dstN, m.now+latency)
			}
		}
	case rtl.KLoad:
		eval := compileEvalOrInterp(dec.addr)
		cls, n, size := i.MemClass, i.FIFO.N, i.MemSize
		return func(m *Machine) {
			addr, ok := eval(m)
			if !ok {
				return
			}
			m.memSeq++
			m.inFIFO[cls][n].push(fifoEntry{addr: int64(addr), size: size, seq: m.memSeq})
			m.unserved++
		}
	case rtl.KStore:
		eval := compileEvalOrInterp(dec.addr)
		cls, n, size := i.MemClass, i.FIFO.N, i.MemSize
		return func(m *Machine) {
			addr, ok := eval(m)
			if !ok {
				return
			}
			m.memSeq++
			m.unmatchedStores[cls][n].push(storeReq{int64(addr), size, m.memSeq})
		}
	default:
		msg := fmt.Sprintf("unit cannot execute %s", i)
		return func(m *Machine) { m.fail("%s", msg) }
	}
}

// ifuFn is the translated IFU step for one code index.  The second
// return value tells the driving loop what happened:
//
//	ifuCont  — a zero-cost control transfer executed; keep going.
//	ifuStop  — the cycle is over; the cause is final (Issued paths).
//	ifuStall — the instruction stalled; promote to Issued if any
//	           zero-cost op already executed this cycle (stall()).
type ifuFn func(m *Machine) (telemetry.Cause, uint8)

const (
	ifuCont uint8 = iota
	ifuStop
	ifuStall
)

// makeIFU lowers one instruction's IFU behavior.
func makeIFU(idx int, i *rtl.Instr, target int, dec *decoded, codeLen int) ifuFn {
	switch i.Kind {
	case rtl.KJump:
		return func(m *Machine) (telemetry.Cause, uint8) {
			m.profTick(idx)
			m.pc = target
			m.stats.Branches++
			m.progress()
			return 0, ifuCont
		}

	case rtl.KCondJump:
		cc, sense := i.CCClass, i.Sense
		return func(m *Machine) (telemetry.Cause, uint8) {
			q := &m.ccFIFO[cc]
			if q.n == 0 || q.at(0).ready > m.now {
				m.stats.BranchStalls++
				return telemetry.CauseCCWait, ifuStall
			}
			e := q.pop()
			m.profTick(idx)
			if e.val == sense {
				m.pc = target
			} else {
				m.pc = idx + 1
			}
			m.stats.Branches++
			m.progress()
			return 0, ifuCont
		}

	case rtl.KJumpNotDone:
		fc, fn := i.FIFO.Class, i.FIFO.N
		return func(m *Machine) (telemetry.Cause, uint8) {
			m.profTick(idx)
			cnt := m.streamIter[fc][fn]
			if cnt < 0 { // infinite stream: always taken
				m.pc = target
			} else if cnt > 1 {
				m.streamIter[fc][fn] = cnt - 1
				m.pc = target
			} else {
				m.streamIter[fc][fn] = 0
				m.pc = idx + 1
			}
			m.stats.Branches++
			m.progress()
			return 0, ifuCont
		}

	case rtl.KCall:
		return func(m *Machine) (telemetry.Cause, uint8) {
			if m.lrInFlight() {
				return telemetry.CauseResultLatency, ifuStall
			}
			m.profTick(idx)
			m.regs[rtl.Int][rtl.LR] = uint64(idx + 1)
			m.readyAt[rtl.Int][rtl.LR] = m.now
			m.pc = target
			m.progress()
			return 0, ifuCont
		}

	case rtl.KRet:
		return func(m *Machine) (telemetry.Cause, uint8) {
			if m.lrInFlight() || m.readyAt[rtl.Int][rtl.LR] > m.now {
				return telemetry.CauseResultLatency, ifuStall
			}
			ret := int(m.regs[rtl.Int][rtl.LR])
			if ret < 0 || ret >= codeLen {
				m.fail("return to bad address %d", ret)
				return telemetry.CauseIdle, ifuStall
			}
			m.profTick(idx)
			m.pc = ret
			m.progress()
			return 0, ifuCont
		}

	case rtl.KHalt:
		return func(m *Machine) (telemetry.Cause, uint8) {
			m.profTick(idx)
			m.halted = true
			m.progress()
			return telemetry.CauseIssued, ifuStop
		}

	case rtl.KPut:
		srcRegs := dec.srcRegs
		eval := compileEvalOrInterp(dec.src)
		format, srcCls := i.Fmt, dec.srcClass
		return func(m *Machine) (telemetry.Cause, uint8) {
			if !m.regsQuietList(srcRegs) {
				return telemetry.CauseResultLatency, ifuStall
			}
			val, ok := eval(m)
			if !ok {
				return telemetry.CauseIdle, ifuStall
			}
			m.profTick(idx)
			m.put(format, val, srcCls)
			m.pc = idx + 1
			m.stats.Dispatched++
			m.stats.Instructions++
			m.progress()
			return telemetry.CauseIssued, ifuStop // consumes the dispatch slot
		}

	case rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop:
		instr, d := i, dec
		return func(m *Machine) (telemetry.Cause, uint8) {
			if !m.startStream(instr, d) {
				return telemetry.CauseStreamBusy, ifuStall
			}
			m.profTick(idx)
			m.pc = idx + 1
			m.stats.Dispatched++
			m.stats.Instructions++
			m.progress()
			return telemetry.CauseIssued, ifuStop
		}

	default:
		// Dispatch into a unit queue.
		unit := int(dec.unit)
		wait := dec.words - 1
		wmask, amask := dec.defMask, dec.readMask|dec.defMask
		return func(m *Machine) (telemetry.Cause, uint8) {
			if m.queues[unit].n >= m.cfg.QueueDepth {
				m.stats.IFUStallFull++
				return telemetry.CauseQueueFull, ifuStall
			}
			m.seq++
			m.queues[unit].push(dispatched{idx: idx, seq: m.seq, wmask: wmask, amask: amask})
			m.pc = idx + 1
			m.stats.Dispatched++
			m.ifuWait = wait
			m.progress()
			return telemetry.CauseIssued, ifuStop
		}
	}
}
