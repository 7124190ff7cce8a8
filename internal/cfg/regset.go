package cfg

import (
	"math/bits"
	"sort"
	"strings"

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

func regBit(r rtl.Reg) (word int, mask uint64) {
	i := 2*r.N + int(r.Class)
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
