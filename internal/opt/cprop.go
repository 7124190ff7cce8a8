package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// CopyProp performs copy and constant propagation: block-local with
// full kill tracking, plus a global pass for single-definition virtual
// registers (safe without dominance tests because a single-def register
// is only meaningfully read where its definition reaches).
func CopyProp(f *rtl.Func) (bool, error) {
	changed := globalSingleDefProp(f)
	local, err := localCopyProp(f)
	if err != nil {
		return changed, err
	}
	return changed || local, nil
}

// globalSingleDefProp replaces uses of single-def virtual registers
// whose definition is a small constant or another single-def virtual
// register.  Symbols and float immediates are deliberately not
// propagated into expressions: the target materializes them with
// multi-word sequences, so they must stay in registers (CSE and code
// motion take care of them instead).
func globalSingleDefProp(f *rtl.Func) bool {
	defCount := map[rtl.Reg]int{}
	defOf := map[rtl.Reg]*rtl.Instr{}
	for _, i := range f.Code {
		if d, ok := i.Def(); ok && d.IsVirtual() {
			defCount[d]++
			defOf[d] = i
		}
		if i.Kind == rtl.KCall {
			// Calls clobber physical registers only; virtuals are safe.
			continue
		}
	}
	repl := map[rtl.Reg]rtl.Expr{}
	for r, n := range defCount {
		if n != 1 {
			continue
		}
		def := defOf[r]
		if def.Kind != rtl.KAssign || def.HasSideEffects() {
			continue
		}
		switch src := def.Src.(type) {
		case rtl.Imm:
			repl[r] = src
		case rtl.RegX:
			if src.Reg.IsVirtual() && defCount[src.Reg] == 1 {
				repl[r] = src
			}
		}
	}
	if len(repl) == 0 {
		return false
	}
	// Resolve chains (v2 -> v1 -> const).
	resolve := func(e rtl.Expr) rtl.Expr {
		for k := 0; k < 8; k++ {
			rx, ok := e.(rtl.RegX)
			if !ok {
				return e
			}
			next, ok := repl[rx.Reg]
			if !ok {
				return e
			}
			e = next
		}
		return e
	}
	changed := false
	for _, i := range f.Code {
		i.MapExprs(func(e rtl.Expr) rtl.Expr {
			out := rtl.RenameRegsExpr(e, func(r rtl.Reg) rtl.Expr {
				if to, ok := repl[r]; ok {
					changed = true
					return resolve(to)
				}
				return rtl.RegX{Reg: r}
			})
			return out
		})
	}
	return changed
}

// localCopyProp propagates copies and constants within basic blocks
// with precise kill handling, covering multi-def registers (loop
// variables) and physical registers.
func localCopyProp(f *rtl.Func) (bool, error) {
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	changed := false
	for _, b := range g.Blocks {
		// value[r] = expression currently equal to r (RegX or Imm).
		value := map[rtl.Reg]rtl.Expr{}
		kill := func(r rtl.Reg) {
			delete(value, r)
			for dst, src := range value {
				if rx, ok := src.(rtl.RegX); ok && rx.Reg == r {
					delete(value, dst)
				}
			}
		}
		for _, i := range b.Instrs(f) {
			// Rewrite uses.
			i.MapExprs(func(e rtl.Expr) rtl.Expr {
				return rtl.RenameRegsExpr(e, func(r rtl.Reg) rtl.Expr {
					if to, ok := value[r]; ok {
						changed = true
						return to
					}
					return rtl.RegX{Reg: r}
				})
			})
			// Update the environment.
			switch i.Kind {
			case rtl.KAssign:
				d := i.Dst
				if d.IsZero() || d.IsFIFO() {
					continue
				}
				kill(d)
				if i.HasFIFORead() {
					continue
				}
				switch src := i.Src.(type) {
				case rtl.Imm:
					value[d] = src
				case rtl.RegX:
					// A self-copy d := d says nothing about d: recording
					// it would "rewrite" every later use of d to itself.
					if !src.Reg.IsZero() && !src.Reg.IsFIFO() && src.Reg != d {
						value[d] = src
					}
				}
			case rtl.KCall:
				// Clobbers every physical register: drop entries whose
				// source or destination is physical.
				for dst, src := range value {
					phys := !dst.IsVirtual()
					if rx, ok := src.(rtl.RegX); ok && !rx.Reg.IsVirtual() {
						phys = true
					}
					if phys {
						delete(value, dst)
					}
				}
			}
		}
	}
	return changed, nil
}
