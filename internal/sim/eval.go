package sim

import (
	"math"

	"wmstream/internal/rtl"
)

// evalProg runs a compiled expression program (see decode.go) and
// returns the raw bits of the result.  Integer-class values are int64
// bit patterns, float-class values are Float64bits.  Reads of FIFO
// registers dequeue (availability was verified by the issue hazard
// check); operand evaluation order is the compiled left-to-right
// order, matching the hardware's in-order operand fetch.
//
// The operand stack lives in the machine and is reused across calls;
// fault messages were pre-formatted at decode time — this path never
// allocates and never touches fmt.
func (m *Machine) evalProg(p eprog) (uint64, bool) {
	st := m.evalStack[:0]
	for k := range p {
		s := &p[k]
		switch s.op {
		case eoConst:
			st = append(st, s.bits)
		case eoReg:
			st = append(st, m.regs[s.cls][s.n])
		case eoFIFO:
			q := &m.inFIFO[s.cls][s.n]
			if q.n == 0 || !q.at(0).served || q.at(0).ready > m.now {
				m.fail("%s", s.msg)
				m.evalStack = st[:0]
				return 0, false
			}
			st = append(st, q.pop().val)
		case eoBinInt:
			b := int64(st[len(st)-1])
			st = st[:len(st)-1]
			v, ok := rtl.EvalIntOp(s.rop, int64(st[len(st)-1]), b)
			if !ok {
				m.fail("%s", s.msg)
				m.evalStack = st[:0]
				return 0, false
			}
			st[len(st)-1] = uint64(v)
		case eoBinFloat, eoBinFloatRel:
			b := math.Float64frombits(st[len(st)-1])
			st = st[:len(st)-1]
			a := math.Float64frombits(st[len(st)-1])
			v, ok := rtl.EvalFloatOp(s.rop, a, b)
			if !ok {
				m.fail("%s", s.msg)
				m.evalStack = st[:0]
				return 0, false
			}
			if s.op == eoBinFloatRel {
				st[len(st)-1] = uint64(int64(v))
			} else {
				st[len(st)-1] = math.Float64bits(v)
			}
		case eoUnInt:
			v, ok := rtl.EvalUnInt(s.rop, int64(st[len(st)-1]))
			if !ok {
				m.fail("%s", s.msg)
				m.evalStack = st[:0]
				return 0, false
			}
			st[len(st)-1] = uint64(v)
		case eoUnFloat:
			v, ok := rtl.EvalUnFloat(s.rop, math.Float64frombits(st[len(st)-1]))
			if !ok {
				m.fail("%s", s.msg)
				m.evalStack = st[:0]
				return 0, false
			}
			st[len(st)-1] = math.Float64bits(v)
		case eoCvtIF:
			st[len(st)-1] = math.Float64bits(float64(int64(st[len(st)-1])))
		case eoCvtFI:
			st[len(st)-1] = uint64(int64(math.Float64frombits(st[len(st)-1])))
		default: // eoFail
			m.fail("%s", s.msg)
			m.evalStack = st[:0]
			return 0, false
		}
	}
	v := st[0]
	m.evalStack = st[:0]
	return v, true
}
