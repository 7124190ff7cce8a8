package rtl

// Clone returns a deep copy of the function: the code slice and every
// instruction are fresh, so mutating the clone (or the original) never
// affects the other.  Expression trees are shared — they are immutable
// by convention (transformations replace operands via MapExprs rather
// than editing nodes in place), the same convention Instr.Clone relies
// on.  Clone is the snapshot primitive of the optimizer's pass sandbox:
// the sandbox clones a function once, before its first sandboxed pass,
// and rolls a faulty transformation back by restoring a copy of that
// snapshot and replaying the passes kept since.  The copies live in one
// slab of instructions, so a snapshot allocates once for the code
// rather than once per instruction.
func (f *Func) Clone() *Func {
	c := *f
	c.Code = make([]*Instr, len(f.Code))
	slab := make([]Instr, len(f.Code))
	for n, i := range f.Code {
		slab[n] = *i
		if i.Args != nil {
			slab[n].Args = append([]Reg(nil), i.Args...)
		}
		c.Code[n] = &slab[n]
	}
	return &c
}

// Restore overwrites the function in place with the snapshot's state.
// The snapshot must not be used afterwards (the function takes
// ownership of its storage).  Restoring through the existing *Func
// keeps every outstanding reference to the function valid, which is
// what lets the pass sandbox roll back without re-threading pointers.
func (f *Func) Restore(snap *Func) { *f = *snap }
