package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wmstream/internal/sim"
)

// TestRandomLoadPrograms runs RandomLoadProgram's programs at O0-O3 on
// both engines against the output the generator computed in Go.  The
// shapes reach the optimizer's region-aware load elimination: the test
// also requires that some program carries a recurrence through a
// conditional store, which no other generator produces.
func TestRandomLoadPrograms(t *testing.T) {
	const seeds = 24
	carried := 0
	for seed := 0; seed < seeds; seed++ {
		src, want := RandomLoadProgram(rand.New(rand.NewSource(int64(seed))))
		p := Program{Name: fmt.Sprintf("load%d", seed), Source: src}
		for lvl := 0; lvl <= 3; lvl++ {
			rp, err := Compile(p, lvl)
			if err != nil {
				t.Fatalf("%s O%d: %v\n%s", p.Name, lvl, err, src)
			}
			if lvl == 2 && strings.Contains(rp.String(), "recurrence value") {
				carried++
			}
			for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineTranslated} {
				cfg := sim.DefaultConfig()
				cfg.Engine = eng
				_, out, err := Run(rp, cfg)
				if err != nil {
					t.Fatalf("%s O%d %s: %v\n%s", p.Name, lvl, eng, err, src)
				}
				if out != want {
					t.Fatalf("%s O%d %s: output %q, want %q\n%s", p.Name, lvl, eng, out, want, src)
				}
			}
		}
	}
	if carried == 0 {
		t.Errorf("no program carried a recurrence at O2: the generator no longer reaches the conditional-store path")
	}
}
