package cfg

import (
	"math/rand"
	"sort"
	"testing"

	"wmstream/internal/rtl"
)

// randReg draws from both classes and from register numbers on both
// sides of the 64-bit word boundaries: architectural r0-r31 fill the
// first word, virtual registers start the second (rv0 is bit 64), and
// rv32 starts the third.
func randReg(rng *rand.Rand) rtl.Reg {
	ns := []int{0, 1, 2, 29, 30, 31, 32, 33, 63, 64, 65, 95, 96, 130}
	n := ns[rng.Intn(len(ns))]
	if rng.Intn(3) == 0 {
		n = rng.Intn(140)
	}
	return rtl.Reg{Class: rtl.Class(rng.Intn(rtl.NumClasses)), N: n}
}

type refSet map[rtl.Reg]bool

func (m refSet) sorted() []rtl.Reg {
	var rs []rtl.Reg
	for r := range m {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].N != rs[j].N {
			return rs[i].N < rs[j].N
		}
		return rs[i].Class < rs[j].Class
	})
	return rs
}

// checkSame asserts that s and m hold the same registers, through
// every read accessor of RegSet.
func checkSame(t *testing.T, step int, s RegSet, m refSet) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("step %d: Len = %d, want %d (%v)", step, s.Len(), len(m), s)
	}
	var got []rtl.Reg
	s.ForEach(func(r rtl.Reg) { got = append(got, r) })
	want := m.sorted()
	if len(got) != len(want) {
		t.Fatalf("step %d: ForEach gave %v, want %v", step, got, want)
	}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("step %d: ForEach gave %v, want %v (in order)", step, got, want)
		}
	}
	for n := 0; n < 140; n++ {
		for c := rtl.Class(0); c < rtl.NumClasses; c++ {
			r := rtl.Reg{Class: c, N: n}
			if s.Has(r) != m[r] {
				t.Fatalf("step %d: Has(%v) = %v, want %v", step, r, s.Has(r), m[r])
			}
		}
	}
}

// TestRegSetMatchesMap drives the bit set and a map through the same
// random operations, starting from the zero value, and compares them
// after every step.
func TestRegSetMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two sets, so AddAll/RemoveAll/Equal see operands of
		// different lengths.
		var sets [2]RegSet
		refs := [2]refSet{{}, {}}
		for step := 0; step < 300; step++ {
			k := rng.Intn(2)
			s, m := &sets[k], refs[k]
			o, om := sets[1-k], refs[1-k]
			switch rng.Intn(7) {
			case 0, 1:
				r := randReg(rng)
				s.Add(r)
				m[r] = true
			case 2:
				r := randReg(rng)
				s.Remove(r)
				delete(m, r)
			case 3:
				grew := false
				for r := range om {
					if !m[r] {
						grew = true
					}
					m[r] = true
				}
				if got := s.AddAll(o); got != grew {
					t.Fatalf("seed %d step %d: AddAll reported %v, want %v", seed, step, got, grew)
				}
			case 4:
				s.RemoveAll(o)
				for r := range om {
					delete(m, r)
				}
			case 5:
				c := s.Clone()
				c.Add(randReg(rng))
				c.Remove(randReg(rng))
				checkSame(t, step, *s, m) // the clone shares nothing
			case 6:
				eq := len(m) == len(om)
				for r := range m {
					if !om[r] {
						eq = false
					}
				}
				if s.Equal(o) != eq || o.Equal(*s) != eq {
					t.Fatalf("seed %d step %d: Equal = %v, want %v (%v vs %v)", seed, step, s.Equal(o), eq, *s, o)
				}
			}
			checkSame(t, step, *s, m)
		}
	}
}

func TestRegSetZeroValue(t *testing.T) {
	var z RegSet
	if z.Len() != 0 || z.Has(rtl.R(0)) || z.Has(rtl.F(200)) {
		t.Error("zero value is not empty")
	}
	z.ForEach(func(r rtl.Reg) { t.Errorf("zero value yields %v", r) })
	if !z.Equal(NewRegSet()) || !z.Equal(z.Clone()) {
		t.Error("zero value not Equal to an empty set")
	}
	z.Remove(rtl.F(90)) // no-op, no panic
	var big RegSet
	big.Add(rtl.F(100))
	big.Remove(rtl.F(100))
	if !z.Equal(big) || !big.Equal(z) {
		t.Error("an emptied long set must equal the zero value")
	}
	if z.AddAll(big) {
		t.Error("AddAll of an empty set reported growth")
	}
	z.RemoveAll(big)
	z.Add(rtl.R(64))
	if !z.Has(rtl.R(64)) || z.Has(rtl.F(64)) || z.Len() != 1 {
		t.Errorf("zero value after Add = %v", z)
	}
}
