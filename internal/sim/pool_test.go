package sim

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// distinctImage links a small program that differs for every k >= 1:
// its data size and contents, and the bound of a loop summing 1..k,
// whose total it prints.
func distinctImage(tb testing.TB, k int) *Image {
	tb.Helper()
	data := make([]byte, 4*(k%7+1))
	binary.LittleEndian.PutUint32(data, uint32(k))
	src := `
.entry main
.data v ` + strconv.Itoa(len(data)) + ` align=4 init=` + hexOf(data) + `
.func main
r2 := 0
r3 := 1
L1:
r2 := (r2 + r3)
r3 := (r3 + 1)
r31 := (r3 <= ` + strconv.Itoa(k) + `)
jumpTr L1
puti r2
halt
.end
`
	p, err := rtl.Parse(src)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		tb.Fatalf("link: %v", err)
	}
	return img
}

// distinctOutput is what distinctImage(k) prints.
func distinctOutput(k int) string { return strconv.Itoa(k * (k + 1) / 2) }

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
				t.Fatalf("Acquire returned an unpooled machine")
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

// TestPoolTracedRuns: observed runs pool like any other.  On each
// engine, a traced and profiled run on a machine whose last runs were
// other programs, untraced, leaves the trace bytes and retirement
// counts a machine from New leaves; an untraced run after it reports
// no retirement counts and adds nothing to its trace.
func TestPoolTracedRuns(t *testing.T) {
	img := checkpointImage(t)
	for _, eng := range []Engine{EngineTranslated, EngineReference} {
		t.Run(eng.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			cfg.QueueDepth = 6 // a shape no other test uses
			traced := func(build func(*Image, Config) *Machine) (*Machine, *telemetry.Trace, string) {
				t.Helper()
				tcfg := cfg
				tcfg.TraceSink = telemetry.NewTrace()
				tcfg.Profile = true
				m := build(img, tcfg)
				if _, err := m.Run(); err != nil {
					t.Fatalf("traced run: %v", err)
				}
				return m, tcfg.TraceSink, traceText(t, tcfg.TraceSink)
			}
			fresh, _, want := traced(New)

			var dirty *Machine
			for k := 1; k <= 2; k++ {
				dirty = Acquire(distinctImage(t, k), cfg)
				if _, err := dirty.Run(); err != nil {
					t.Fatalf("untraced program %d: %v", k, err)
				}
				Release(dirty)
			}
			m, tr, got := traced(Acquire)
			if m != dirty {
				t.Log("the pool dropped the dirtied machine")
			}
			if got != want {
				t.Errorf("pooled trace differs from New's (%d vs %d bytes)", len(got), len(want))
			}
			if !reflect.DeepEqual(m.Retired(), fresh.Retired()) {
				t.Errorf("pooled retirement counts differ from New's")
			}
			events := tr.Events()
			Release(m)

			u := Acquire(img, cfg)
			if _, err := u.Run(); err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if u.Retired() != nil {
				t.Error("untraced run after a profiled one has retirement counts")
			}
			if tr.Events() != events || traceText(t, tr) != got {
				t.Error("untraced run after a traced one added to its trace")
			}
			Release(u)
		})
	}
}

// traceText renders the trace as its JSON text.
func traceText(t *testing.T, tr *telemetry.Trace) string {
	t.Helper()
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
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
	// Two images alternating on one shape: every acquire rebinds the
	// machine, from the translation cache, so rebinding must not
	// re-translate or re-decode.
	imgs := [2]*Image{img, distinctImage(t, 9)}
	for _, im := range imgs {
		m := Acquire(im, cfg)
		if _, err := m.Run(); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		Release(m)
	}
	turn := 0
	alternating := testing.AllocsPerRun(5, func() {
		m := Acquire(imgs[turn%2], cfg)
		turn++
		if _, err := m.Run(); err != nil {
			t.Fatalf("alternating run: %v", err)
		}
		Release(m)
	})
	t.Logf("allocs/run: pooled=%.0f alternating=%.0f fresh=%.0f", pooled, alternating, fresh)
	if alternating > 32 {
		t.Errorf("pooled run alternating two images allocates %.0f times, want <= 32", alternating)
	}
	// The pooled path should be nearly allocation-free; 32 leaves
	// headroom for runtime noise while still failing if pooling breaks.
	if pooled > 32 {
		t.Errorf("pooled run allocates %.0f times, want <= 32", pooled)
	}
	if pooled >= fresh {
		t.Errorf("pooling saves nothing: pooled=%.0f fresh=%.0f", pooled, fresh)
	}
}

// poolKeysWhere returns the pool keys that satisfy keep.
func poolKeysWhere(keep func(poolKey) bool) []poolKey {
	var keys []poolKey
	machinePools.Range(func(k, _ any) bool {
		if keep(k.(poolKey)) {
			keys = append(keys, k.(poolKey))
		}
		return true
	})
	return keys
}

// TestPoolKeyedByShape: the pool is keyed by allocation shape alone.
// Twenty programs under configurations that differ only in behaviour
// fields share one key; a different FIFO depth adds one more.  The
// FIFO depths 5 and 6 are used by no other test, so the keys holding
// them are this test's.
func TestPoolKeyedByShape(t *testing.T) {
	base := DefaultConfig()
	base.FIFODepth = 5
	for k := 1; k <= 20; k++ {
		cfg := base
		cfg.MemLatency += k % 4
		cfg.MemPorts = 1 + k%2
		cfg.StackTop -= int64(k%3) << 12
		cfg.MaxCycles -= int64(k)
		cfg.WatchdogSlack += k
		// The settings decode depends on change every few programs,
		// so most acquires rebind for the image alone.
		cfg.DivLatency += k / 4
		cfg.MathLatency += k / 8
		cfg.CvtLatency += k / 6
		cfg.Engine = Engine(k / 10)
		var out bytes.Buffer
		cfg.Output = &out
		m := Acquire(distinctImage(t, k), cfg)
		if _, err := m.Run(); err != nil {
			t.Fatalf("program %d: %v", k, err)
		}
		if got, want := out.String(), distinctOutput(k); got != want {
			t.Errorf("program %d printed %q, want %q", k, got, want)
		}
		Release(m)
	}
	depth := func(d int) func(poolKey) bool {
		return func(k poolKey) bool { return k.fifoDepth == d }
	}
	if keys := poolKeysWhere(depth(5)); len(keys) != 1 {
		t.Fatalf("twenty programs on one shape left %d pool keys, want 1: %+v", len(keys), keys)
	}

	cfg := base
	cfg.FIFODepth = 6
	Release(Acquire(distinctImage(t, 1), cfg))
	if keys := poolKeysWhere(depth(6)); len(keys) != 1 {
		t.Errorf("a second FIFO depth left %d pool keys of its own, want 1: %+v", len(keys), keys)
	}
}

// TestPoolDoubleRelease: releasing one acquire twice puts the machine
// in its pool once, so the next two acquires get distinct machines.
func TestPoolDoubleRelease(t *testing.T) {
	img := distinctImage(t, 4)
	cfg := DefaultConfig()
	cfg.QueueDepth = 5 // a shape no other test uses
	m := Acquire(img, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	Release(m)
	Release(m)
	a := Acquire(img, cfg)
	b := Acquire(img, cfg)
	if a == b {
		t.Fatal("two acquires after a double release share one machine")
	}
	for _, m := range []*Machine{a, b} {
		var out bytes.Buffer
		m.cfg.Output = &out
		if _, err := m.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if got, want := out.String(), distinctOutput(4); got != want {
			t.Errorf("printed %q, want %q", got, want)
		}
	}
	Release(a)
	Release(b)
}

// TestPoolConcurrentImages: goroutines acquiring machines for
// different programs from one shape's pool each get a machine bound to
// their own program.
func TestPoolConcurrentImages(t *testing.T) {
	imgs := make([]*Image, 8)
	for k := range imgs {
		imgs[k] = distinctImage(t, k+1)
	}
	cfg := DefaultConfig()
	cfg.CCDepth = 5 // a shape no other test uses
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 25; n++ {
				k := (g + n) % len(imgs)
				var out bytes.Buffer
				c := cfg
				c.Output = &out
				c.Engine = Engine(n % 2)
				m := Acquire(imgs[k], c)
				if _, err := m.Run(); err != nil {
					t.Errorf("program %d: %v", k+1, err)
					return
				}
				if got, want := out.String(), distinctOutput(k+1); got != want {
					t.Errorf("program %d printed %q, want %q", k+1, got, want)
				}
				Release(m)
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPoolUniqueImages acquires, runs and releases a machine for
// each of 50 distinct small programs on one shape, the pattern of a
// server whose simulated programs are nearly all run once; B/op is the
// cost the pool leaves per program.
func BenchmarkPoolUniqueImages(b *testing.B) {
	imgs := make([]*Image, 50)
	for k := range imgs {
		imgs[k] = distinctImage(b, k+1)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, img := range imgs {
			m := Acquire(img, cfg)
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			Release(m)
		}
	}
}
