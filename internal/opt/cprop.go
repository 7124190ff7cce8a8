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
// motion take care of them instead).  Calls clobber physical registers
// only, so they do not stop a virtual register's value.
func globalSingleDefProp(f *rtl.Func) bool {
	defCount, defOf, repl := intTables.Get(f), instrTables.Get(f), exprTables.Get(f)
	defer intTables.Put(defCount)
	defer instrTables.Put(defOf)
	defer exprTables.Put(repl)
	var defs []rtl.Reg // in order of first definition
	for _, i := range f.Code {
		if d, ok := i.Def(); ok && d.IsVirtual() {
			n := defCount.At(d)
			if *n == 0 {
				defs = append(defs, d)
			}
			*n++
			defOf.Set(d, i)
		}
	}
	found := false
	for _, r := range defs {
		if defCount.Get(r) != 1 {
			continue
		}
		def := defOf.Get(r)
		if def.Kind != rtl.KAssign || def.HasSideEffects() {
			continue
		}
		switch src := def.Src.(type) {
		case rtl.Imm:
			repl.Set(r, src)
			found = true
		case rtl.RegX:
			if src.Reg.IsVirtual() && defCount.Get(src.Reg) == 1 {
				repl.Set(r, src)
				found = true
			}
		}
	}
	if !found {
		return false
	}
	// Resolve chains (v2 -> v1 -> const).
	resolve := func(r rtl.Reg) rtl.Expr {
		e := repl.Get(r)
		if e == nil {
			return nil
		}
		for k := 0; k < 8; k++ {
			rx, ok := e.(rtl.RegX)
			if !ok {
				return e
			}
			next := repl.Get(rx.Reg)
			if next == nil {
				return e
			}
			e = next
		}
		return e
	}
	changed := false
	for _, i := range f.Code {
		if replaceUses(i, resolve) {
			changed = true
		}
	}
	return changed
}

// replaceUses replaces every register an expression operand of i reads
// by to(register), where that is not nil, and reports whether it
// replaced any.  Operands with nothing to replace are left as they are.
func replaceUses(i *rtl.Instr, to func(rtl.Reg) rtl.Expr) bool {
	changed := false
	i.MapExprs(func(e rtl.Expr) rtl.Expr {
		out, ok := rtl.ReplaceRegs(e, to)
		changed = changed || ok
		return out
	})
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
	env := regValues{value: exprTables.Get(f)}
	defer exprTables.Put(env.value)
	for _, b := range g.Blocks {
		env.clear()
		for _, i := range b.Instrs(f) {
			// Rewrite uses.
			if len(env.keys) > 0 && replaceUses(i, env.value.Get) {
				changed = true
			}
			// Update the environment.
			switch i.Kind {
			case rtl.KAssign:
				d := i.Dst
				if d.IsZero() || d.IsFIFO() {
					continue
				}
				env.drop(func(dst rtl.Reg, src rtl.Expr) bool {
					rx, ok := src.(rtl.RegX)
					return dst == d || ok && rx.Reg == d
				})
				if i.HasFIFORead() {
					continue
				}
				switch src := i.Src.(type) {
				case rtl.Imm:
					env.set(d, src)
				case rtl.RegX:
					// A self-copy d := d says nothing about d: recording
					// it would "rewrite" every later use of d to itself.
					if !src.Reg.IsZero() && !src.Reg.IsFIFO() && src.Reg != d {
						env.set(d, src)
					}
				}
			case rtl.KCall:
				// Clobbers every physical register: drop entries whose
				// source or destination is physical.
				env.drop(func(dst rtl.Reg, src rtl.Expr) bool {
					rx, ok := src.(rtl.RegX)
					return !dst.IsVirtual() || ok && !rx.Reg.IsVirtual()
				})
			}
		}
	}
	return changed, nil
}

// regValues is localCopyProp's environment: the expression (RegX or
// Imm) each register currently equals, and the registers that have one.
type regValues struct {
	value *cfg.RegMap[rtl.Expr]
	keys  []rtl.Reg
}

// set records that r equals e; r must have no entry.
func (v *regValues) set(r rtl.Reg, e rtl.Expr) {
	v.value.Set(r, e)
	v.keys = append(v.keys, r)
}

// drop removes the entries for which gone reports true.
func (v *regValues) drop(gone func(dst rtl.Reg, src rtl.Expr) bool) {
	keep := v.keys[:0]
	for _, k := range v.keys {
		if gone(k, v.value.Get(k)) {
			v.value.Set(k, nil)
		} else {
			keep = append(keep, k)
		}
	}
	v.keys = keep
}

// clear removes every entry.
func (v *regValues) clear() {
	v.value.Reset(v.keys)
	v.keys = v.keys[:0]
}
