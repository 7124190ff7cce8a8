package sim

import (
	"fmt"
	"math"

	"wmstream/internal/rtl"
)

// The decode cache pre-resolves, once at machine construction,
// everything the engines used to recompute from the instruction's
// expression tree on every issue attempt: operand lists with their
// pipeline stages, FIFO read counts, result latencies, and a flat
// postfix program per expression so evaluation stops re-switching on
// AST shape.  The hot loop then works exclusively on flat arrays.

// evalOp is one opcode of a compiled expression program.
type evalOp uint8

const (
	eoConst       evalOp = iota // push bits
	eoReg                       // push a scalar register
	eoFIFO                      // dequeue an input FIFO
	eoBinInt                    // integer binary op
	eoBinFloat                  // float binary op (non-relational)
	eoBinFloatRel               // float relational op (integer result)
	eoUnInt                     // integer unary op
	eoUnFloat                   // float unary op
	eoCvtIF                     // int -> float conversion
	eoCvtFI                     // float -> int conversion
	eoFail                      // machine fault with a pre-formatted message
)

// evalStep is one step of a compiled expression program.
type evalStep struct {
	op   evalOp
	rop  rtl.Op    // eoBin*/eoUn*
	cls  rtl.Class // eoReg/eoFIFO: register class
	n    int       // eoReg/eoFIFO: register number
	bits uint64    // eoConst
	msg  string    // fault text for eoFail and for failing operators
}

type eprog []evalStep

// fifoNeed is one input FIFO an instruction dequeues from, with the
// number of entries it consumes.
type fifoNeed struct {
	cls  rtl.Class
	n    int
	need int
}

// decoded caches the per-instruction facts consulted every cycle.
// Index-matched with Image.Code.
type decoded struct {
	ops      []operand  // scalar register operands (zero/FIFO regs filtered out)
	reads    [2][2]int  // FIFO dequeues per (class, fifo number)
	readList []fifoNeed // same, in hazard-check order
	unit     rtl.Class  // executing unit for dispatched kinds
	latency  int64      // result forwarding latency (KAssign)
	words    int        // instruction words (extra IFU fetch cycles)

	isCompare bool
	fifoWrite bool
	def       rtl.Reg // destination tracked for hazards
	hasDef    bool    // def exists and is neither zero nor a FIFO

	// readMask and defMask are ops and def as register masks (regBit):
	// the accesses a queue entry of this instruction holds in flight.
	readMask, defMask uint64

	// busyFIFO[c][n] reports that the instruction references FIFO (c,n)
	// as a load/store channel, an operand, or a destination — the facts
	// the stream-start interlock (fifoBusy) scans the queues for.
	busyFIFO [2][2]bool

	srcClass rtl.Class // class of Src (KPut formatting)

	// Compiled expression programs (nil when the field is unused).
	src, addr, base, count, stride eprog

	// Register lists for the IFU's operand-quiet checks, in evaluation
	// order with zero registers filtered out.
	srcRegs, baseRegs, countRegs, strideRegs []rtl.Reg
}

// decodeImage builds the decode cache for a linked image under the
// given machine parameters (the latencies are configuration-dependent).
func decodeImage(img *Image, cfg Config) []decoded {
	dec := make([]decoded, len(img.Code))
	for k, i := range img.Code {
		d := &dec[k]
		for _, op := range operandsOf(i) {
			if op.reg.IsZero() || op.reg.IsFIFO() {
				continue
			}
			d.ops = append(d.ops, op)
			d.readMask |= regBit(op.reg)
		}
		d.reads = fifoReads(i)
		for c := 0; c < 2; c++ {
			for n := 0; n < 2; n++ {
				if need := d.reads[c][n]; need > 0 {
					d.readList = append(d.readList, fifoNeed{rtl.Class(c), n, need})
				}
			}
		}
		d.unit = unitOf(i)
		d.latency = latencyOf(i, cfg)
		d.words = i.Words()
		d.isCompare = i.IsCompare()
		d.fifoWrite = i.HasFIFOWrite()
		if def, ok := i.Def(); ok && !def.IsZero() && !def.IsFIFO() {
			d.def, d.hasDef = def, true
			d.defMask = regBit(def)
		}
		switch i.Kind {
		case rtl.KLoad, rtl.KStore:
			d.busyFIFO[i.MemClass][i.FIFO.N] = true
		case rtl.KAssign:
			if i.Dst.IsFIFO() {
				d.busyFIFO[i.Dst.Class][i.Dst.N] = true
			}
		}
		for _, r := range i.Uses(nil) {
			if r.IsFIFO() {
				d.busyFIFO[r.Class][r.N] = true
			}
		}
		if i.Src != nil {
			d.srcClass = i.Src.Class()
		}
		d.src = compileExpr(i.Src, img)
		d.addr = compileExpr(i.Addr, img)
		d.base = compileExpr(i.Base, img)
		d.count = compileExpr(i.Count, img)
		d.stride = compileExpr(i.Stride, img)
		d.srcRegs = quietList(i.Src)
		d.baseRegs = quietList(i.Base)
		d.countRegs = quietList(i.Count)
		d.strideRegs = quietList(i.Stride)
	}
	return dec
}

// regBit is the register's bit in a hazard mask: Class*32 + N, so both
// register files fit one uint64.
func regBit(r rtl.Reg) uint64 { return 1 << (uint(r.Class)*rtl.NumArchRegs + uint(r.N)) }

// The masks need 2*rtl.NumArchRegs <= 64.
var _ [64 - 2*rtl.NumArchRegs]struct{}

// ifuResident reports whether the IFU executes the kind itself; every
// other kind is dispatched into a unit queue.
func ifuResident(k rtl.Kind) bool {
	switch k {
	case rtl.KJump, rtl.KCondJump, rtl.KJumpNotDone, rtl.KCall,
		rtl.KRet, rtl.KHalt, rtl.KPut,
		rtl.KStreamIn, rtl.KStreamOut, rtl.KStreamStop:
		return true
	}
	return false
}

// quietList lists the registers the IFU must see quiet before touching
// the expression, in order, zero registers excluded.
func quietList(e rtl.Expr) []rtl.Reg {
	if e == nil {
		return nil
	}
	var out []rtl.Reg
	rtl.ExprRegs(e, func(r rtl.Reg) {
		if !r.IsZero() {
			out = append(out, r)
		}
	})
	return out
}

// compileExpr flattens an expression tree to postfix.  The program
// replicates the recursive evaluator exactly: left-to-right operand
// order (so FIFO dequeues interleave identically), lazy faults (an
// unknown symbol or illegal Mem operand faults only when evaluation
// reaches it, after the side effects of anything evaluated before it),
// and the reference fault messages, pre-formatted here so the hot path
// never touches fmt.
func compileExpr(e rtl.Expr, img *Image) eprog {
	if e == nil {
		return nil
	}
	return appendExpr(nil, e, img)
}

func appendExpr(p eprog, e rtl.Expr, img *Image) eprog {
	switch x := e.(type) {
	case rtl.RegX:
		r := x.Reg
		switch {
		case r.IsZero():
			return append(p, evalStep{op: eoConst})
		case r.IsFIFO():
			return append(p, evalStep{op: eoFIFO, cls: r.Class, n: r.N,
				msg: fmt.Sprintf("FIFO %s read with no available data", r)})
		default:
			return append(p, evalStep{op: eoReg, cls: r.Class, n: r.N})
		}
	case rtl.Imm:
		return append(p, evalStep{op: eoConst, bits: uint64(x.V)})
	case rtl.FImm:
		return append(p, evalStep{op: eoConst, bits: math.Float64bits(x.V)})
	case rtl.Sym:
		addr, ok := img.Globals[x.Name]
		if !ok {
			return append(p, evalStep{op: eoFail,
				msg: fmt.Sprintf("unknown symbol %q", x.Name)})
		}
		return append(p, evalStep{op: eoConst, bits: uint64(addr + x.Off)})
	case rtl.Bin:
		p = appendExpr(p, x.L, img)
		p = appendExpr(p, x.R, img)
		if x.L.Class() == rtl.Float {
			op := eoBinFloat
			if x.Op.IsRelational() {
				op = eoBinFloatRel
			}
			return append(p, evalStep{op: op, rop: x.Op,
				msg: fmt.Sprintf("float op %s failed (division by zero?)", x.Op)})
		}
		return append(p, evalStep{op: eoBinInt, rop: x.Op,
			msg: fmt.Sprintf("int op %s failed (division by zero or bad shift)", x.Op)})
	case rtl.Un:
		p = appendExpr(p, x.X, img)
		if x.X.Class() == rtl.Float {
			return append(p, evalStep{op: eoUnFloat, rop: x.Op,
				msg: fmt.Sprintf("bad float unary %s", x.Op)})
		}
		return append(p, evalStep{op: eoUnInt, rop: x.Op,
			msg: fmt.Sprintf("bad int unary %s", x.Op)})
	case rtl.Cvt:
		p = appendExpr(p, x.X, img)
		if x.To == rtl.Float && x.X.Class() == rtl.Int {
			return append(p, evalStep{op: eoCvtIF})
		}
		if x.To == rtl.Int && x.X.Class() == rtl.Float {
			return append(p, evalStep{op: eoCvtFI})
		}
		return p // same-class conversion passes through
	case rtl.Mem:
		// Faults without evaluating the address, like the reference.
		return append(p, evalStep{op: eoFail,
			msg: fmt.Sprintf("memory operand %s in WM code (run legalization)", x)})
	}
	return append(p, evalStep{op: eoFail, msg: fmt.Sprintf("cannot evaluate %T", e)})
}

// latencyOf returns the cycles after issue at which the result becomes
// available to inner operands of later instructions.
func latencyOf(i *rtl.Instr, cfg Config) int64 {
	base := int64(2)
	extra := int64(0)
	if i.Src != nil {
		rtl.WalkExpr(i.Src, func(e rtl.Expr) {
			switch x := e.(type) {
			case rtl.Bin:
				if x.Op == rtl.Div || x.Op == rtl.Rem {
					extra = maxI64(extra, int64(cfg.DivLatency))
				}
			case rtl.Un:
				if x.Op >= rtl.Sqrt {
					extra = maxI64(extra, int64(cfg.MathLatency))
				}
			case rtl.Cvt:
				extra = maxI64(extra, int64(cfg.CvtLatency))
			}
		})
	}
	return base + extra
}
