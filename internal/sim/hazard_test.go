package sim

import (
	"math"
	"math/rand"
	"testing"

	"wmstream/internal/rtl"
)

// pendAccess is one entry of a per-register in-flight access list: the
// record the simulator once kept beside the unit queues, appended at
// dispatch and filtered at issue.  The test keeps it as the oracle.
type pendAccess struct {
	seq   int64
	write bool
}

// TestQueueHazardDerivation checks the equivalence argument behind
// deriving register hazards from the unit queues, independently of
// either engine: for two random in-order queues, the answers read off
// per-register access lists built from the same entries — an earlier
// writer of r, an earlier access to r, any access to r — equal the
// queue scans.
func TestQueueHazardDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randReg := func() rtl.Reg {
		return rtl.Reg{Class: rtl.Class(rng.Intn(2)), N: rng.Intn(rtl.NumArchRegs)}
	}
	for trial := 0; trial < 2000; trial++ {
		m := &Machine{}
		var pend [2][rtl.NumArchRegs][]pendAccess
		var seq int64
		for k, n := 0, rng.Intn(17); k < n; k++ {
			seq += 1 + rng.Int63n(3)
			var reads []rtl.Reg
			for j := rng.Intn(4); j > 0; j-- {
				reads = append(reads, randReg())
			}
			e := dispatched{idx: k, seq: seq}
			for _, r := range reads {
				e.amask |= regBit(r)
				pend[r.Class][r.N] = append(pend[r.Class][r.N], pendAccess{seq, false})
			}
			if rng.Intn(3) > 0 {
				def := randReg()
				e.wmask = regBit(def)
				e.amask |= e.wmask
				pend[def.Class][def.N] = append(pend[def.Class][def.N], pendAccess{seq, true})
			}
			m.queues[rng.Intn(2)].push(e)
		}
		for q := 0; q < 50; q++ {
			r := randReg()
			at := rng.Int63n(seq + 3)
			var writer, access bool
			for _, p := range pend[r.Class][r.N] {
				if p.seq < at {
					access = true
					writer = writer || p.write
				}
			}
			w, a := m.queuedBefore(at)
			if got := w&regBit(r) != 0; got != writer {
				t.Fatalf("trial %d: writer of %s before seq %d: queues say %v, lists %v", trial, r, at, got, writer)
			}
			if got := a&regBit(r) != 0; got != access {
				t.Fatalf("trial %d: access to %s before seq %d: queues say %v, lists %v", trial, r, at, got, access)
			}
			if got, want := m.inFlight()&regBit(r) != 0, len(pend[r.Class][r.N]) > 0; got != want {
				t.Fatalf("trial %d: any access to %s: queues say %v, lists %v", trial, r, got, want)
			}
		}
		if w, a := m.queuedBefore(math.MinInt64); w|a != 0 {
			t.Fatalf("trial %d: entries older than any seq: %#x %#x", trial, w, a)
		}
	}
}
