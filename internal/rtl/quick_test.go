package rtl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// --- operator algebra ------------------------------------------------------

func TestQuickNegateInvolution(t *testing.T) {
	rels := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(k uint8) bool {
		op := rels[int(k)%len(rels)]
		return op.Negate().Negate() == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSwapInvolution(t *testing.T) {
	rels := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(k uint8) bool {
		op := rels[int(k)%len(rels)]
		return op.Swap().Swap() == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Negate and Swap agree with evaluation semantics.
func TestQuickRelationalSemantics(t *testing.T) {
	rels := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(k uint8, a, b int64) bool {
		op := rels[int(k)%len(rels)]
		v, _ := EvalIntOp(op, a, b)
		nv, _ := EvalIntOp(op.Negate(), a, b)
		sv, _ := EvalIntOp(op.Swap(), b, a)
		return (v != 0) != (nv != 0) && (v != 0) == (sv != 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- printer/parser round trip ---------------------------------------------

// randomInstr builds a random but printable instruction.
func randomInstr(r *rand.Rand) *Instr {
	reg := func(c Class) Reg {
		for {
			n := r.Intn(NumArchRegs)
			if n != FIFO0 && n != FIFO1 {
				return Reg{c, n}
			}
		}
	}
	expr := func(depth int) Expr {
		var build func(d int) Expr
		build = func(d int) Expr {
			if d == 0 || r.Intn(3) == 0 {
				switch r.Intn(3) {
				case 0:
					return I(int64(r.Intn(2001) - 1000))
				case 1:
					return RX(reg(Int))
				default:
					return Sym{Name: "g", Off: int64(r.Intn(64) * 8)}
				}
			}
			ops := []Op{Add, Sub, Mul, Shl, Shr, And, Or, Xor}
			return B(ops[r.Intn(len(ops))], build(d-1), build(d-1))
		}
		return build(depth)
	}
	fifo := Reg{Class(r.Intn(2)), r.Intn(2)}
	switch r.Intn(9) {
	case 0:
		return NewAssign(reg(Int), expr(2))
	case 1:
		return NewAssign(Reg{Int, ZeroReg}, B(Lt, RX(reg(Int)), RX(reg(Int))))
	case 2:
		return NewLoad(fifo, expr(1), []int{1, 4, 8}[r.Intn(3)])
	case 3:
		return NewStore(fifo, expr(1), []int{1, 4, 8}[r.Intn(3)])
	case 4:
		return NewJump("L1")
	case 5:
		return NewCondJump("L2", r.Intn(2) == 0, Class(r.Intn(2)))
	case 6:
		return &Instr{Kind: KStreamIn, FIFO: fifo, Base: RX(reg(Int)),
			Count: I(int64(r.Intn(100) + 1)), Stride: I(int64(r.Intn(16) + 1)),
			MemSize: 8, MemClass: fifo.Class}
	case 7:
		return &Instr{Kind: KJumpNotDone, FIFO: fifo, Target: "L3"}
	default:
		return &Instr{Kind: KPut, Fmt: []byte{'c', 'i', 'd'}[r.Intn(3)], Src: RX(reg(Int))}
	}
}

// TestQuickInstrRoundTrip: printing any instruction and parsing it back
// yields a structurally identical instruction.
func TestQuickInstrRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 2000; k++ {
		i := randomInstr(r)
		text := formatInstr(i)
		j, err := ParseInstr(text)
		if err != nil {
			t.Fatalf("round %d: parse %q: %v", k, text, err)
		}
		a, b := normInstr(i), normInstr(j)
		if !reflect.DeepEqual(a, b) {
			// Parsed trees may differ by folding-neutral structure
			// (e.g. parenthesization); compare by re-printing.
			if formatInstr(j) != text {
				t.Fatalf("round %d: %q -> %q", k, text, formatInstr(j))
			}
		}
	}
}

// TestQuickExprParsePrintFixpoint: print(parse(print(e))) == print(e).
func TestQuickExprParsePrintFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for k := 0; k < 2000; k++ {
		var build func(d int) Expr
		build = func(d int) Expr {
			if d == 0 || r.Intn(3) == 0 {
				switch r.Intn(4) {
				case 0:
					return I(int64(r.Intn(200) - 100))
				case 1:
					return RX(R(r.Intn(NumArchRegs)))
				case 2:
					return RX(F(r.Intn(NumArchRegs)))
				default:
					return Sym{Name: "sym", Off: int64(r.Intn(32))}
				}
			}
			ops := []Op{Add, Sub, Mul, Div, Rem, Shl, Shr, And, Or, Xor, Lt, Ge}
			return B(ops[r.Intn(len(ops))], build(d-1), build(d-1))
		}
		e := build(3)
		text := e.String()
		p, err := parseExpr(text)
		if err != nil {
			t.Fatalf("round %d: parse %q: %v", k, text, err)
		}
		if p.String() != text {
			t.Fatalf("round %d: %q -> %q", k, text, p.String())
		}
	}
}

// TestQuickFoldSoundOnRegisters: folding an expression and then
// substituting constant register values gives the same result as
// substituting first and folding after.
func TestQuickFoldSoundOnRegisters(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for k := 0; k < 2000; k++ {
		regVals := map[Reg]int64{}
		for n := 2; n < 6; n++ {
			regVals[R(n)] = int64(r.Intn(41) - 20)
		}
		var build func(d int) Expr
		build = func(d int) Expr {
			if d == 0 || r.Intn(3) == 0 {
				if r.Intn(2) == 0 {
					return I(int64(r.Intn(17) - 8))
				}
				return RX(R(2 + r.Intn(4)))
			}
			ops := []Op{Add, Sub, Mul, And, Or, Xor, Lt, Ge, Eq}
			return B(ops[r.Intn(len(ops))], build(d-1), build(d-1))
		}
		e := build(3)
		subst := func(x Expr) Expr {
			out, _ := ReplaceRegs(x, func(rg Reg) Expr {
				if v, ok := regVals[rg]; ok {
					return Imm{v}
				}
				return nil
			})
			return out
		}
		direct := FoldExpr(subst(e))
		folded := FoldExpr(subst(FoldExpr(e)))
		dv, dok := direct.(Imm)
		fv, fok := folded.(Imm)
		if dok != fok || (dok && dv.V != fv.V) {
			t.Fatalf("round %d: %v: direct %v vs folded %v", k, e, direct, folded)
		}
	}
}
