package cfg

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"wmstream/internal/rtl"
)

// RegSet is a set of registers, stored as a dense bit set: register r
// is bit 2*r.N+r.Class.  Virtual registers are numbered densely per
// function, so a function's sets are a few words long.  The zero value
// is an empty set ready for use; Add grows the set as needed.
type RegSet struct {
	w []uint64
}

// NewRegSet returns an empty set.  It is the same as the zero value.
func NewRegSet() RegSet { return RegSet{} }

// carve returns the next nw words of slab as an empty set.  The set's
// capacity is capped at nw, so growing it reallocates instead of
// writing into the next set's words.
func carve(slab *[]uint64, nw int) RegSet {
	w := (*slab)[:nw:nw]
	*slab = (*slab)[nw:]
	return RegSet{w: w}
}

// regIndex numbers a register for RegSet and RegMap: 2*r.N+r.Class,
// the integer register before the float register of the same number.
func regIndex(r rtl.Reg) int { return 2*r.N + int(r.Class) }

func regBit(r rtl.Reg) (word int, mask uint64) {
	i := regIndex(r)
	return i >> 6, 1 << uint(i&63)
}

func regOfBit(i int) rtl.Reg { return rtl.Reg{Class: rtl.Class(i & 1), N: i >> 1} }

// Add inserts r.
func (s *RegSet) Add(r rtl.Reg) {
	k, m := regBit(r)
	if k >= len(s.w) {
		s.grow(k + 1)
	}
	s.w[k] |= m
}

// grow extends s to at least nw words; the new words are empty.
func (s *RegSet) grow(nw int) {
	n := len(s.w)
	if nw <= n {
		return
	}
	if nw <= cap(s.w) {
		s.w = s.w[:nw]
		clear(s.w[n:])
		return
	}
	w := make([]uint64, nw)
	copy(w, s.w)
	s.w = w
}

// Remove deletes r.
func (s *RegSet) Remove(r rtl.Reg) {
	if k, m := regBit(r); k < len(s.w) {
		s.w[k] &^= m
	}
}

// Has reports membership.
func (s RegSet) Has(r rtl.Reg) bool {
	k, m := regBit(r)
	return k < len(s.w) && s.w[k]&m != 0
}

// AddAll inserts every element of t and reports whether s grew.
func (s *RegSet) AddAll(t RegSet) bool {
	n := len(t.w)
	for n > 0 && t.w[n-1] == 0 {
		n--
	}
	if n > len(s.w) {
		s.grow(n)
	}
	grew := false
	for k, x := range t.w[:n] {
		if x&^s.w[k] != 0 {
			s.w[k] |= x
			grew = true
		}
	}
	return grew
}

// RemoveAll deletes every element of t.
func (s *RegSet) RemoveAll(t RegSet) {
	for k := range min(len(s.w), len(t.w)) {
		s.w[k] &^= t.w[k]
	}
}

// Clone returns a copy that shares no storage with s.
func (s RegSet) Clone() RegSet {
	if len(s.w) == 0 {
		return RegSet{}
	}
	return RegSet{w: append([]uint64(nil), s.w...)}
}

// Equal reports set equality.
func (s RegSet) Equal(t RegSet) bool {
	a, b := s.w, t.w
	if len(a) < len(b) {
		a, b = b, a
	}
	for k, x := range b {
		if a[k] != x {
			return false
		}
	}
	for _, x := range a[len(b):] {
		if x != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of registers in the set.
func (s RegSet) Len() int {
	n := 0
	for _, x := range s.w {
		n += bits.OnesCount64(x)
	}
	return n
}

// ForEach calls fn for every register in the set, in increasing order
// of register number (the integer register before the float register
// of the same number).
func (s RegSet) ForEach(fn func(rtl.Reg)) {
	for k, x := range s.w {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			x &= x - 1
			fn(regOfBit(k<<6 + b))
		}
	}
}

func (s RegSet) String() string {
	var names []string
	s.ForEach(func(r rtl.Reg) { names = append(names, r.String()) })
	sort.Strings(names)
	return "{" + strings.Join(names, " ") + "}"
}

// RegMap is a table from registers to values of T, indexed by the
// number RegSet gives a register (2*r.N+r.Class).  It replaces a
// map[rtl.Reg]T on the optimizer's hot paths, where hashing the
// register on every lookup cost more than the work around it.  The
// zero value is an empty table: writes grow it, and reads past its end
// return T's zero value.
//
// A table records no presence of its own.  A caller that needs to tell
// "unset" from a zero value keeps that in T, and a caller that walks or
// empties the entries it set keeps a list of their registers: Reset
// with that list empties the table while keeping its storage, so one
// table can serve many short analyses.
type RegMap[T any] struct {
	v  []T
	hi int // entries at hi and beyond have never been written
}

// regLimit is the table length that holds every register f has
// allocated so far.
func regLimit(f *rtl.Func) int {
	return 2 * (rtl.VirtualBase + max(f.NumVirt(rtl.Int), f.NumVirt(rtl.Float)))
}

// Get returns r's entry, T's zero value when r was never set.
func (m *RegMap[T]) Get(r rtl.Reg) T {
	if i := regIndex(r); i < m.hi {
		return m.v[i]
	}
	var zero T
	return zero
}

// At returns a pointer to r's entry, growing the table to hold it.  A
// later write to another register may grow the table and leave the
// pointer aimed at the old storage, so use it before the next write.
func (m *RegMap[T]) At(r rtl.Reg) *T {
	i := regIndex(r)
	if i >= m.hi {
		if i >= len(m.v) {
			m.grow(i + 1)
		}
		m.hi = i + 1
	}
	return &m.v[i]
}

// Set stores v as r's entry.
func (m *RegMap[T]) Set(r rtl.Reg, v T) { *m.At(r) = v }

// Reset zeroes the entries of regs and keeps the storage.  Given every
// register set since the table was last empty, it empties the table.
func (m *RegMap[T]) Reset(regs []rtl.Reg) {
	var zero T
	for _, r := range regs {
		if i := regIndex(r); i < m.hi {
			m.v[i] = zero
		}
	}
}

// ForEach calls fn for every entry in register order (RegSet.ForEach's
// order), the zero entries of registers never set included, up to the
// highest register set.
func (m *RegMap[T]) ForEach(fn func(rtl.Reg, T)) {
	for i, v := range m.v[:m.hi] {
		fn(regOfBit(i), v)
	}
}

// grow extends the table to at least n entries; the new ones are zero.
func (m *RegMap[T]) grow(n int) {
	old := len(m.v)
	m.v = slices.Grow(m.v, max(n, 2*old)-old)
	m.v = m.v[:cap(m.v)]
	clear(m.v[old:])
}

// RegMapPool recycles the storage of short-lived tables of one element
// type, such as those a pass builds on every run, so that a run costs
// no allocation once the pool holds a table of the function's size.
// The zero value is ready for use, and a pool is safe for concurrent
// use.
type RegMapPool[T any] struct {
	pool sync.Pool
}

// Get returns an empty table sized for every register f has allocated
// so far.  Registers created later still fit: the table grows on
// write.
func (p *RegMapPool[T]) Get(f *rtl.Func) *RegMap[T] {
	m, _ := p.pool.Get().(*RegMap[T])
	if m == nil {
		m = new(RegMap[T])
	}
	if n := regLimit(f); n > len(m.v) {
		m.grow(n)
	}
	return m
}

// Put empties m and keeps its storage for a later Get.  Emptying costs
// as much as the highest register ever set in m, not its storage.  The
// caller must not use m afterwards.
func (p *RegMapPool[T]) Put(m *RegMap[T]) {
	clear(m.v[:m.hi])
	m.hi = 0
	p.pool.Put(m)
}
