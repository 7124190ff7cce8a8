package bench

import (
	"fmt"
	"sync"
	"testing"

	"wmstream/internal/sim"
)

const cyclesGolden = "testdata/cycles.golden"

// cycleCounts runs the Table II suite and Livermore 5 at O0-O3 on the
// default machine, and at O3 on a machine whose memory answers in 8
// cycles, keyed by "program/level/machine".  Each value is the run's
// cycles, memory reads and streamed elements: numbers a reader can
// diff, unlike the listing digests.
func cycleCounts(t *testing.T) map[string]string {
	type run struct {
		level      int
		machine    string
		memLatency int
	}
	runs := []run{{0, "default", 0}, {1, "default", 0}, {2, "default", 0}, {3, "default", 0}, {3, "mem8", 8}}
	var mu sync.Mutex
	out := map[string]string{}
	t.Run("runs", func(t *testing.T) {
		for _, p := range append(Programs(), Livermore5(2000)) {
			for _, r := range runs {
				p, r := p, r
				key := fmt.Sprintf("%s/O%d/%s", p.Name, r.level, r.machine)
				t.Run(key, func(t *testing.T) {
					t.Parallel()
					rp, err := Compile(p, r.level)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					cfg := sim.DefaultConfig()
					if r.memLatency > 0 {
						cfg.MemLatency = r.memLatency
					}
					st, _, err := Run(rp, cfg)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					mu.Lock()
					out[key] = fmt.Sprintf("cycles=%d memreads=%d streamed=%d", st.Cycles, st.MemReads, st.StreamElems)
					mu.Unlock()
				})
			}
		}
	})
	return out
}

// TestSuiteCycles pins the simulated cost of the compiled suite in
// testdata/cycles.golden, one readable line per program, level and
// machine.  A codegen change regenerates it with -update, and the diff
// of the file is the per-program ledger of that change.
func TestSuiteCycles(t *testing.T) {
	got := cycleCounts(t)
	if t.Failed() {
		return
	}
	checkGolden(t, cyclesGolden, got)
}
