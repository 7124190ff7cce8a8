package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// SinkCopies rewrites the expander's assignment pattern
//
//	t := expr        =>    r := expr
//	r := t                 (uses of t become r)
//
// computing the expression directly into its destination.  This is what
// turns the naive "t := k + i; k := t" of a source-level assignment into
// the canonical induction-variable increment "k := k + i" that the
// recurrence, streaming and trip-count analyses recognize.
//
// Legality (block-local, conservative):
//
//   - t is a single-definition virtual register defined in the same
//     block before the copy;
//   - nothing between the definition and the copy reads or writes
//     either t or r (the definition's own operands may read r);
//   - every other use of t sits after the copy in the same block,
//     before any redefinition of r, and t is dead at the block's end.
//
// The flow graph and liveness are computed once per call, for the same
// reason as in Combine: a rewrite removes one copy and changes no
// block's live-in or live-out set.  The definition and use counts are
// kept up to date across rewrites instead of being recounted.
func SinkCopies(f *rtl.Func) (bool, error) {
	s := sinker{f: f, defCount: map[rtl.Reg]int{}, useCount: map[rtl.Reg]int{}}
	for _, i := range f.Code {
		s.count(i, 1)
	}
	g, err := cfg.Build(f)
	if err != nil {
		return false, err
	}
	g.Liveness()
	rewrites := 0
	for _, b := range g.Blocks {
		for rewrites < 256 && s.sinkBlock(b) {
			rewrites++
			g.NoteRemoval(b)
			if analysisCheck != nil {
				analysisCheck("SinkCopies", f, g)
			}
		}
	}
	return rewrites > 0, nil
}

// sinker holds SinkCopies' function-wide counts: how many instructions
// define each register, and how many register operands read it.
type sinker struct {
	f                  *rtl.Func
	defCount, useCount map[rtl.Reg]int
	uses               []rtl.Reg // scratch for Instr.Uses
}

// count adds delta times i's definition and uses to the counts.
func (s *sinker) count(i *rtl.Instr, delta int) {
	if d, ok := i.Def(); ok {
		s.defCount[d] += delta
	}
	s.uses = i.Uses(s.uses[:0])
	for _, u := range s.uses {
		s.useCount[u] += delta
	}
}

// usesOf returns how many of i's register operands read r.
func (s *sinker) usesOf(i *rtl.Instr, r rtl.Reg) int {
	n := 0
	s.uses = i.Uses(s.uses[:0])
	for _, u := range s.uses {
		if u == r {
			n++
		}
	}
	return n
}

// sinkBlock applies the first legal rewrite whose copy lies in b.
func (s *sinker) sinkBlock(b *cfg.Block) bool {
	f := s.f
	for c := b.Start; c < b.End; c++ {
		copyI := f.Code[c]
		if copyI.Kind != rtl.KAssign {
			continue
		}
		tx, isReg := copyI.Src.(rtl.RegX)
		if !isReg {
			continue
		}
		t, r := tx.Reg, copyI.Dst
		if !t.IsVirtual() || s.defCount[t] != 1 || t == r {
			continue
		}
		if r.IsZero() || r.IsFIFO() || t.IsFIFO() {
			continue
		}
		// Find t's definition within the block, before the copy.
		d := -1
		for n := b.Start; n < c; n++ {
			if def, ok := f.Code[n].Def(); ok && def == t {
				d = n
			}
		}
		if d == -1 || f.Code[d].Kind != rtl.KAssign {
			continue
		}
		// Between definition and copy: no access to t or r.
		clean := true
		for n := d + 1; n < c; n++ {
			mid := f.Code[n]
			if def, ok := mid.Def(); ok && (def == t || def == r) {
				clean = false
				break
			}
			if mid.Kind == rtl.KCall && (!t.IsVirtual() || !r.IsVirtual()) {
				clean = false
				break
			}
			s.uses = mid.Uses(s.uses[:0])
			for _, u := range s.uses {
				if u == t || u == r {
					clean = false
				}
			}
			if !clean {
				break
			}
		}
		if !clean {
			continue
		}
		// All other uses of t must be in (c, b.End), with r stable.
		var rewrites []int
		reads := s.usesOf(copyI, t)
		for n := c + 1; n < b.End; n++ {
			if k := s.usesOf(f.Code[n], t); k > 0 {
				rewrites = append(rewrites, n)
				reads += k
			}
		}
		if reads != s.useCount[t] {
			continue
		}
		// t dead at block end; r not redefined before the last use of t.
		if b.LiveOut.Has(t) {
			continue
		}
		ok := true
		last := c
		for _, u := range rewrites {
			if u > last {
				last = u
			}
		}
		for n := c + 1; n <= last && ok; n++ {
			if def, okd := f.Code[n].Def(); okd && def == r {
				isUse := false
				for _, u := range rewrites {
					if u == n {
						isUse = true
					}
				}
				// A rewrite site may also redefine r only if it is the
				// last one.
				if !isUse || n != last {
					ok = false
				}
			}
			if f.Code[n].Kind == rtl.KCall && !r.IsVirtual() {
				ok = false
			}
		}
		if !ok {
			continue
		}
		// Apply: compute into r, drop the copy, rename trailing uses.
		s.count(f.Code[d], -1)
		s.count(copyI, -1)
		for _, u := range rewrites {
			s.count(f.Code[u], -1)
		}
		f.Code[d].Dst = r
		for _, u := range rewrites {
			f.Code[u].MapExprs(func(e rtl.Expr) rtl.Expr {
				return rtl.SubstReg(e, t, rtl.RX(r))
			})
		}
		s.count(f.Code[d], 1)
		for _, u := range rewrites {
			s.count(f.Code[u], 1)
		}
		f.Remove(c)
		return true
	}
	return false
}
