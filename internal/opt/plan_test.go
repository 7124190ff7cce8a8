package opt

import (
	"fmt"
	"testing"

	"wmstream/internal/rtl"
)

// TestAllocFIFOs pins step 2e as one table: FIFO0 carries a stream only
// when every access of its class and direction streams, and a FIFO
// another stream of the loop holds is given to none.
func TestAllocFIFOs(t *testing.T) {
	const none = -1
	type cand struct {
		write bool
		class rtl.Class
		want  int // FIFO, or none
	}
	rd := func(c rtl.Class, want int) cand { return cand{false, c, want} }
	wr := func(c rtl.Class, want int) cand { return cand{true, c, want} }
	var fifo1, fifo0 fifoSet
	fifo1[rtl.Int][rtl.FIFO1] = true
	fifo0[rtl.Int][rtl.FIFO0] = true
	cases := []struct {
		name  string
		cands []cand // in body order
		total map[dirClass]int
		inUse fifoSet
	}{
		{"finite C=T=1", []cand{rd(rtl.Int, rtl.FIFO0)},
			map[dirClass]int{{false, rtl.Int}: 1}, fifoSet{}},
		{"finite C=T=2 per class and direction",
			[]cand{rd(rtl.Int, rtl.FIFO0), wr(rtl.Int, rtl.FIFO0), rd(rtl.Float, rtl.FIFO0),
				rd(rtl.Int, rtl.FIFO1), wr(rtl.Int, rtl.FIFO1)},
			map[dirClass]int{{false, rtl.Int}: 2, {true, rtl.Int}: 2, {false, rtl.Float}: 1}, fifoSet{}},
		{"finite C=T=3", []cand{rd(rtl.Int, rtl.FIFO1), rd(rtl.Int, none), rd(rtl.Int, none)},
			map[dirClass]int{{false, rtl.Int}: 3}, fifoSet{}},
		{"finite C<T", []cand{wr(rtl.Float, rtl.FIFO1), rd(rtl.Float, rtl.FIFO1), rd(rtl.Float, none)},
			map[dirClass]int{{false, rtl.Float}: 3, {true, rtl.Float}: 2}, fifoSet{}},
		{"infinite reads", []cand{rd(rtl.Int, rtl.FIFO0), rd(rtl.Float, rtl.FIFO1), rd(rtl.Int, rtl.FIFO1)},
			map[dirClass]int{{false, rtl.Int}: 2, {false, rtl.Float}: 2}, fifoSet{}},
		{"restart FIFO1 in use, C=T=1", []cand{rd(rtl.Int, rtl.FIFO0)},
			map[dirClass]int{{false, rtl.Int}: 1}, fifo1},
		{"restart FIFO1 in use, C=T=2", []cand{rd(rtl.Int, none), rd(rtl.Int, none)},
			map[dirClass]int{{false, rtl.Int}: 2}, fifo1},
		{"restart FIFO1 in use, C<T", []cand{rd(rtl.Int, none)},
			map[dirClass]int{{false, rtl.Int}: 2}, fifo1},
		{"restart FIFO1 in use, other class free", []cand{rd(rtl.Float, rtl.FIFO0), rd(rtl.Float, rtl.FIFO1)},
			map[dirClass]int{{false, rtl.Float}: 2}, fifo1},
		{"restart FIFO0 in use, C=T=1", []cand{rd(rtl.Int, rtl.FIFO1)},
			map[dirClass]int{{false, rtl.Int}: 1}, fifo0},
		{"restart FIFO0 in use, C=T=2", []cand{rd(rtl.Int, rtl.FIFO1), rd(rtl.Int, none)},
			map[dirClass]int{{false, rtl.Int}: 2}, fifo0},
		{"restart FIFO0 in use, C<T", []cand{rd(rtl.Int, rtl.FIFO1)},
			map[dirClass]int{{false, rtl.Int}: 3}, fifo0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cands []*streamRef
			for n, c := range tc.cands {
				cands = append(cands, &streamRef{ref: &memRef{accIdx: n, write: c.write, class: c.class}, fifoN: none})
			}
			got := allocFIFOs(cands, tc.total, tc.inUse)
			// The returned streams are the candidates given a FIFO, in
			// body order.
			var gotN, wantN string
			k := 0
			for n, s := range cands {
				if s.fifoN != none {
					if k >= len(got) || got[k] != s {
						t.Errorf("candidate %d given a FIFO but not returned in body order", n)
					}
					k++
				}
				gotN += fmt.Sprintf(" %d", s.fifoN)
				wantN += fmt.Sprintf(" %d", tc.cands[n].want)
			}
			if k != len(got) {
				t.Errorf("returned %d streams, %d candidates have a FIFO", len(got), k)
			}
			if gotN != wantN {
				t.Errorf("FIFOs%s, want%s", gotN, wantN)
			}
		})
	}
}
