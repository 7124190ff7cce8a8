package sim

import (
	"bytes"
	"reflect"
	"testing"
)

// TestPoolBitIdentity runs the same program on a fresh machine, a
// pooled machine, and a machine recycled through Release/Acquire, and
// requires identical statistics, output and memory from all three.
// The "fast" case runs the translated engine on a long-latency machine.
func TestPoolBitIdentity(t *testing.T) {
	img := checkpointImage(t)
	for _, e := range []struct {
		name   string
		eng    Engine
		adjust func(*Config)
	}{{"translated", EngineTranslated, nil}, {"fast", EngineTranslated, longLatency}, {"ref", EngineReference, nil}} {
		e := e
		t.Run(e.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = e.eng
			if e.adjust != nil {
				e.adjust(&cfg)
			}
			wantStats, wantOut, wantMem := runUninterrupted(t, img, cfg)
			wantMem = append([]byte(nil), wantMem...)

			run := func(m *Machine, out *bytes.Buffer, label string) {
				t.Helper()
				stats, err := m.Run()
				if err != nil {
					t.Fatalf("%s run: %v", label, err)
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("%s stats mismatch:\nfresh:  %+v\npooled: %+v", label, wantStats, stats)
				}
				if out.String() != wantOut {
					t.Errorf("%s output %q, want %q", label, out.String(), wantOut)
				}
				if !bytes.Equal(m.Mem(), wantMem) {
					t.Errorf("%s final memory differs", label)
				}
			}

			var out1 bytes.Buffer
			acfg := cfg
			acfg.Output = &out1
			m := Acquire(img, acfg)
			if !m.pooled {
				t.Fatalf("Acquire returned an unpooled machine for a poolable config")
			}
			run(m, &out1, "first acquire")
			Release(m)

			// The recycled machine must start from power-on state.
			var out2 bytes.Buffer
			acfg.Output = &out2
			m2 := Acquire(img, acfg)
			run(m2, &out2, "recycled")
			Release(m2)
		})
	}
}

// TestPoolBypassesObservers: configurations with per-cycle observers
// never pool (their machines carry run-specific state).
func TestPoolBypassesObservers(t *testing.T) {
	img := checkpointImage(t)
	cfg := DefaultConfig()
	cfg.Profile = true
	m := Acquire(img, cfg)
	if m.pooled {
		t.Error("profiled machine was pooled")
	}
	Release(m) // must be a no-op, not a panic
}

// TestPoolRecycledCheckpoint: a rearmed machine restores and resumes a
// checkpoint exactly like a fresh one (rearm resets everything
// RestoreState does not overwrite).
func TestPoolRecycledCheckpoint(t *testing.T) {
	img := checkpointImage(t)
	cfg := DefaultConfig()
	wantStats, wantOut, wantMem := runUninterrupted(t, img, cfg)
	wantMem = append([]byte(nil), wantMem...)

	var mid bytes.Buffer
	mcfg := cfg
	mcfg.Output = &mid
	src := New(img, mcfg)
	if done, err := src.RunSlice(137); err != nil || done {
		t.Fatalf("run ended before the checkpoint (done=%v err=%v)", done, err)
	}
	blob, err := src.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	// Dirty a pooled machine with a full run, recycle it, then restore
	// the checkpoint into it.
	var scratch bytes.Buffer
	dcfg := cfg
	dcfg.Output = &scratch
	dirty := Acquire(img, dcfg)
	if _, err := dirty.Run(); err != nil {
		t.Fatalf("dirtying run: %v", err)
	}
	Release(dirty)

	rcfg := cfg
	rcfg.Output = &mid
	m := Acquire(img, rcfg)
	if err := m.RestoreState(blob); err != nil {
		t.Fatalf("RestoreState into recycled machine: %v", err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch:\nfresh:    %+v\nrecycled: %+v", wantStats, stats)
	}
	if mid.String() != wantOut {
		t.Errorf("output %q, want %q", mid.String(), wantOut)
	}
	if !bytes.Equal(m.Mem(), wantMem) {
		t.Errorf("final memory images differ")
	}
}

// TestPoolAllocs guards the recycling benefit: running a pooled
// machine must allocate far less than building one from scratch
// (the memory image alone dominates a fresh build).
func TestPoolAllocs(t *testing.T) {
	img := checkpointImage(t)
	cfg := DefaultConfig()

	// Warm the pool and the translation cache.
	m := Acquire(img, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	Release(m)

	pooled := testing.AllocsPerRun(5, func() {
		m := Acquire(img, cfg)
		if _, err := m.Run(); err != nil {
			t.Fatalf("pooled run: %v", err)
		}
		Release(m)
	})
	fresh := testing.AllocsPerRun(5, func() {
		m := New(img, cfg)
		if _, err := m.Run(); err != nil {
			t.Fatalf("fresh run: %v", err)
		}
	})
	t.Logf("allocs/run: pooled=%.0f fresh=%.0f", pooled, fresh)
	// The pooled path should be nearly allocation-free; 32 leaves
	// headroom for runtime noise while still failing if pooling breaks.
	if pooled > 32 {
		t.Errorf("pooled run allocates %.0f times, want <= 32", pooled)
	}
	if pooled >= fresh {
		t.Errorf("pooling saves nothing: pooled=%.0f fresh=%.0f", pooled, fresh)
	}
}
