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
// shapes reach the optimizer's region-aware load elimination and the
// streaming pass's per-read step 2a: the test also requires that some
// program carries a recurrence through a conditional store, that some
// program streams a read whose partition keeps a scalar store, that
// some callee streams its pointer parameter on the infinite path, and
// that some program restarts a stream after an arm holding an inner
// writer, which no other generator produces.
func TestRandomLoadPrograms(t *testing.T) {
	const seeds = 24
	carried, pastStores, scans, restarts := 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		src, want := RandomLoadProgram(rand.New(rand.NewSource(int64(seed))))
		listings := checkLoadProgram(t, fmt.Sprintf("load%d", seed), src, want)
		if strings.Contains(listings[2], "recurrence value") {
			carried++
		}
		if strings.Contains(listings[3], "past scalar stores") {
			pastStores++
		}
		if strings.Contains(listings[3], "restart stream") {
			restarts++
		}
		for _, fn := range strings.Split(listings[3], ".func ")[1:] {
			if strings.HasPrefix(fn, "scan") && strings.Contains(fn, "stream in (infinite)") {
				scans++
				break
			}
		}
	}
	if scans == 0 {
		t.Errorf("no callee streamed its pointer parameter at O3: the generator no longer reaches step 1 in a store-free loop")
	}
	if carried == 0 {
		t.Errorf("no program carried a recurrence at O2: the generator no longer reaches the conditional-store path")
	}
	if restarts == 0 {
		t.Errorf("no program restarted a stream at O3: the generator no longer reaches the restart rule")
	}
	if pastStores == 0 {
		t.Errorf("no program streamed a read past scalar stores at O3: the generator no longer reaches per-read step 2a")
	}
}

// FuzzLoadPrograms runs the program RandomLoadProgram builds from each
// seed at O0-O3 on both engines against the output computed in Go.
func FuzzLoadPrograms(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src, want := RandomLoadProgram(rand.New(rand.NewSource(seed)))
		checkLoadProgram(t, fmt.Sprintf("load%d", seed), src, want)
	})
}

// checkLoadProgram compiles src at O0-O3, requires every level to print
// want on both engines, and returns each level's listing.
func checkLoadProgram(t *testing.T, name, src, want string) (listings [4]string) {
	t.Helper()
	p := Program{Name: name, Source: src}
	for lvl := range listings {
		rp, err := Compile(p, lvl)
		if err != nil {
			t.Fatalf("%s O%d: %v\n%s", p.Name, lvl, err, src)
		}
		listings[lvl] = rp.String()
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
	return listings
}
