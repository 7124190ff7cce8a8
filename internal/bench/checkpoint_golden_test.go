package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wmstream/internal/sim"
)

const checkpointsGolden = "testdata/checkpoints.golden"

// checkpointDigest runs the image in slices of seeded random length,
// saving a checkpoint at every boundary and resuming from it on a fresh
// machine, and returns the SHA-256 over every checkpoint blob in order.
func checkpointDigest(t *testing.T, img *sim.Image, cfg sim.Config, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	m := sim.New(img, cfg)
	for {
		done, err := m.RunSlice(1 + rng.Int63n(100000))
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if done {
			break
		}
		blob, err := m.SaveState()
		if err != nil {
			t.Fatalf("SaveState: %v", err)
		}
		h.Write(blob)
		m = sim.New(img, cfg)
		if err := m.RestoreState(blob); err != nil {
			t.Fatalf("RestoreState: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointDigests runs the Table II suite and Livermore 5 at O0 and
// O3, on the default and the long-latency machine, under both engines,
// keyed by "program/level/machine/engine".  The slice boundaries depend
// only on the program and level, so the two engines must produce the
// same bytes.
func checkpointDigests(t *testing.T) map[string]string {
	machines := []struct {
		name   string
		adjust func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"long", longLatency},
	}
	var mu sync.Mutex
	out := map[string]string{}
	t.Run("runs", func(t *testing.T) {
		for _, p := range append(Programs(), Livermore5(256)) {
			for _, level := range []int{0, 3} {
				p, level := p, level
				t.Run(fmt.Sprintf("%s/O%d", p.Name, level), func(t *testing.T) {
					t.Parallel()
					rp, err := Compile(p, level)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					img, err := sim.Link(rp)
					if err != nil {
						t.Fatalf("link: %v", err)
					}
					seed := int64(level+1)*7919 + int64(len(p.Name))
					for _, mc := range machines {
						for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineTranslated} {
							cfg := sim.DefaultConfig()
							mc.adjust(&cfg)
							cfg.Engine = eng
							d := checkpointDigest(t, img, cfg, seed)
							mu.Lock()
							out[fmt.Sprintf("%s/O%d/%s/%s", p.Name, level, mc.name, eng)] = d
							mu.Unlock()
						}
					}
				})
			}
		}
	})
	return out
}

// TestCheckpointGolden pins the checkpoint encoding byte for byte: the
// SaveState blobs taken at fixed slice boundaries of every run must
// hash to the values in testdata/checkpoints.golden.  A change to how
// the simulator represents its state internally must leave this file
// untouched; only a deliberate change of the encoding or of simulated
// behavior regenerates it with -update.
func TestCheckpointGolden(t *testing.T) {
	checkGolden(t, checkpointsGolden, checkpointDigests(t))
}
