package bench

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/sim"
	"wmstream/internal/telemetry"
)

// The translated engine's correctness contract: for every program,
// every optimization level, and every machine shape, it must be
// cycle-exact against the reference interpreter — same statistics
// (including the per-unit telemetry attribution), same output, same
// final memory image, same error.  These tests are that contract.

// engineResult is everything externally observable about one run.
type engineResult struct {
	stats  sim.Stats
	output string
	mem    []byte
	errStr string
}

func runEngine(img *sim.Image, cfg sim.Config, eng sim.Engine) engineResult {
	var out bytes.Buffer
	cfg.Output = &out
	cfg.Engine = eng
	m := sim.New(img, cfg)
	stats, err := m.Run()
	r := engineResult{stats: stats, output: out.String(), mem: m.Mem()}
	if err != nil {
		r.errStr = err.Error()
	}
	return r
}

// diffEngines compiles the program at the level, runs it under the
// reference and the translated engine, and fails the test on any
// observable divergence.
func diffEngines(t *testing.T, p Program, level int, cfg sim.Config) {
	t.Helper()
	rp, err := Compile(p, level)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := sim.Link(rp)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	ref := runEngine(img, cfg, sim.EngineReference)
	got := runEngine(img, cfg, sim.EngineTranslated)
	if ref.errStr != got.errStr {
		t.Fatalf("error mismatch:\nreference:  %s\ntranslated: %s", ref.errStr, got.errStr)
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Errorf("stats mismatch:\nreference:  %+v\ntranslated: %+v", ref.stats, got.stats)
	}
	if ref.output != got.output {
		t.Errorf("output mismatch:\nreference:  %q\ntranslated: %q", ref.output, got.output)
	}
	if !bytes.Equal(ref.mem, got.mem) {
		t.Errorf("final memory images differ (lengths %d vs %d)", len(ref.mem), len(got.mem))
	}
	if ref.errStr != "" {
		return // attribution sums only hold for completed runs
	}
	for _, r := range []engineResult{ref, got} {
		for _, u := range r.stats.Units {
			if u.Total() != r.stats.Cycles {
				t.Errorf("unit %s attribution sums to %d, want Cycles=%d",
					u.Name, u.Total(), r.stats.Cycles)
			}
		}
	}
	if p.Expect != "" && got.output != p.Expect {
		t.Errorf("output %q, want %q", got.output, p.Expect)
	}
}

// TestEngineDifferential runs the whole Table II suite (plus the
// Livermore loop) at every optimization level through both engines.
func TestEngineDifferential(t *testing.T) {
	progs := append(Programs(), Livermore5(500))
	for _, p := range progs {
		for level := 0; level <= 3; level++ {
			p, level := p, level
			t.Run(fmt.Sprintf("%s/O%d", p.Name, level), func(t *testing.T) {
				t.Parallel()
				diffEngines(t, p, level, sim.DefaultConfig())
			})
		}
	}
}

// TestEngineDifferentialStressed re-runs a streaming-heavy subset under
// machine shapes that exercise every fast-forward boundary: unit memory
// latency (events land immediately), a single memory port (SCU/write
// contention), tiny FIFOs (constant backpressure), one SCU (stream
// serialization), and tiny unit queues (IFU dispatch stalls).
func TestEngineDifferentialStressed(t *testing.T) {
	stress := []struct {
		name   string
		adjust func(*sim.Config)
	}{
		{"mem-latency-1", func(c *sim.Config) { c.MemLatency = 1 }},
		{"mem-ports-1", func(c *sim.Config) { c.MemPorts = 1 }},
		{"fifo-depth-2", func(c *sim.Config) { c.FIFODepth = 2 }},
		{"num-scu-1", func(c *sim.Config) { c.NumSCU = 1 }},
		{"queue-depth-2", func(c *sim.Config) { c.QueueDepth = 2 }},
	}
	progs := []Program{Banner, IIR, DotProduct, Livermore5(256)}
	for _, s := range stress {
		for _, p := range progs {
			for _, level := range []int{0, 2, 3} {
				s, p, level := s, p, level
				t.Run(fmt.Sprintf("%s/%s/O%d", s.name, p.Name, level), func(t *testing.T) {
					t.Parallel()
					cfg := sim.DefaultConfig()
					s.adjust(&cfg)
					diffEngines(t, p, level, cfg)
				})
			}
		}
	}
}

// longLatency stretches memory and long-latency operations so that
// the translated engine's fast-forwards cover long stretches of cycles.
func longLatency(c *sim.Config) {
	c.MemLatency = 24
	c.DivLatency = 40
	c.MathLatency = 48
}

// runSliced executes the image in bounded slices through RunSlice.
// With roundTrip set, every slice boundary serializes the machine with
// SaveState and resumes on a freshly constructed machine via
// RestoreState — the checkpoint/resume path the execution core and the
// job tier depend on.
func runSliced(t *testing.T, img *sim.Image, cfg sim.Config, eng sim.Engine, next func() int64, roundTrip bool) engineResult {
	t.Helper()
	var out bytes.Buffer
	cfg.Output = &out
	cfg.Engine = eng
	m := sim.New(img, cfg)
	var rerr error
	for {
		done, err := m.RunSlice(next())
		if err != nil {
			rerr = err
			break
		}
		if done {
			break
		}
		if roundTrip {
			blob, err := m.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			m = sim.New(img, cfg)
			if err := m.RestoreState(blob); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
		}
	}
	r := engineResult{stats: m.Stats(), output: out.String(), mem: m.Mem()}
	if rerr != nil {
		r.errStr = rerr.Error()
	}
	return r
}

// requireSameResult fails the test on any observable difference
// between two runs: error, statistics (including the per-unit
// telemetry sums), program output, final memory image.
func requireSameResult(t *testing.T, label string, want, got engineResult) {
	t.Helper()
	if want.errStr != got.errStr {
		t.Fatalf("%s: error mismatch:\nuninterrupted: %s\nsliced:        %s", label, want.errStr, got.errStr)
	}
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Errorf("%s: stats mismatch:\nuninterrupted: %+v\nsliced:        %+v", label, want.stats, got.stats)
	}
	if want.output != got.output {
		t.Errorf("%s: output mismatch:\nuninterrupted: %q\nsliced:        %q", label, want.output, got.output)
	}
	if !bytes.Equal(want.mem, got.mem) {
		t.Errorf("%s: final memory images differ (lengths %d vs %d)", label, len(want.mem), len(got.mem))
	}
}

// TestSlicedRunDifferential is the execution core's correctness
// contract: a run chopped into arbitrary slices — including slice = 1
// cycle, and including full serialize/deserialize round trips at every
// boundary — is bit-identical to the uninterrupted run, for every
// program, optimization level, and engine.  The "fast" axis runs the
// translated engine on a long-latency machine, where idle skips and SCU
// batches span many cycles and most slice boundaries land inside one.
func TestSlicedRunDifferential(t *testing.T) {
	progs := append(Programs(), Livermore5(256))
	engines := []struct {
		name   string
		eng    sim.Engine
		adjust func(*sim.Config)
	}{
		{"ref", sim.EngineReference, nil},
		{"fast", sim.EngineTranslated, longLatency},
		{"translated", sim.EngineTranslated, nil},
	}
	for _, p := range progs {
		for level := 0; level <= 3; level++ {
			for _, e := range engines {
				p, level, e := p, level, e
				t.Run(fmt.Sprintf("%s/O%d/%s", p.Name, level, e.name), func(t *testing.T) {
					t.Parallel()
					rp, err := Compile(p, level)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					img, err := sim.Link(rp)
					if err != nil {
						t.Fatalf("link: %v", err)
					}
					cfg := sim.DefaultConfig()
					if e.adjust != nil {
						e.adjust(&cfg)
					}
					want := runEngine(img, cfg, e.eng)

					got := runSliced(t, img, cfg, e.eng,
						func() int64 { return 1 }, false)
					requireSameResult(t, "slice=1", want, got)

					got = runSliced(t, img, cfg, e.eng,
						func() int64 { return 8192 }, true)
					requireSameResult(t, "slice=8192+checkpoint", want, got)

					rng := rand.New(rand.NewSource(int64(level+1)*7919 + int64(len(p.Name))))
					got = runSliced(t, img, cfg, e.eng,
						func() int64 { return 1 + rng.Int63n(20000) }, true)
					requireSameResult(t, "slice=random+checkpoint", want, got)
				})
			}
		}
	}
}

// TestEngineDifferentialDeadlock checks that both engines diagnose a
// hung machine identically: same watchdog cycle, same snapshot.  The
// program reads a FIFO that nothing ever feeds.
func TestEngineDifferentialDeadlock(t *testing.T) {
	rp, err := rtl.Parse(`
.entry main
.func main
r2 := r0
halt
.end
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cfg := sim.DefaultConfig()
	cfg.WatchdogSlack = 50
	img, errl := sim.Link(rp)
	if errl != nil {
		t.Fatalf("link: %v", errl)
	}
	ref := runEngine(img, cfg, sim.EngineReference)
	if ref.errStr == "" {
		t.Fatalf("expected deadlock from the reference engine")
	}
	got := runEngine(img, cfg, sim.EngineTranslated)
	if got.errStr == "" {
		t.Fatalf("translated: expected a deadlock; reference said %q", ref.errStr)
	}
	if ref.errStr != got.errStr {
		t.Fatalf("deadlock diagnosis mismatch:\nreference:  %s\ntranslated: %s", ref.errStr, got.errStr)
	}
	if !reflect.DeepEqual(ref.stats, got.stats) {
		t.Errorf("stats mismatch:\nreference:  %+v\ntranslated: %+v", ref.stats, got.stats)
	}
}

// TestEngineDifferentialMaxCycles checks the MaxCycles trap fires at
// the same cycle with the same statistics under both engines, including
// when the bound lands inside a stalled stretch the translated engine
// skips.
func TestEngineDifferentialMaxCycles(t *testing.T) {
	p := Livermore5(256)
	rp, err := Compile(p, 3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := sim.Link(rp)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	for _, max := range []int64{1, 7, 100, 1001, 4999} {
		max := max
		t.Run(fmt.Sprintf("max-%d", max), func(t *testing.T) {
			t.Parallel()
			cfg := sim.DefaultConfig()
			cfg.MaxCycles = max
			ref := runEngine(img, cfg, sim.EngineReference)
			if ref.errStr == "" {
				t.Fatalf("expected a MaxCycles trap at %d cycles", max)
			}
			got := runEngine(img, cfg, sim.EngineTranslated)
			if ref.errStr != got.errStr {
				t.Fatalf("trap mismatch:\nreference:  %s\ntranslated: %s", ref.errStr, got.errStr)
			}
			if !reflect.DeepEqual(ref.stats, got.stats) {
				t.Errorf("stats mismatch:\nreference:  %+v\ntranslated: %+v", ref.stats, got.stats)
			}
		})
	}
}

// tracedResult is what a traced, profiled run shows beyond its
// statistics: the Chrome trace bytes and the per-instruction retirement
// counts.
type tracedResult struct {
	trace   []byte
	retired []int64
	errStr  string
}

// runTraced runs the image on the engine with a trace recorder and the
// profiler attached, in slices of the given size (0 = uninterrupted).
func runTraced(t *testing.T, img *sim.Image, cfg sim.Config, eng sim.Engine, slice int64) tracedResult {
	t.Helper()
	tr := telemetry.NewTrace()
	cfg.Engine = eng
	cfg.TraceSink = tr
	cfg.Profile = true
	if slice == 0 {
		slice = math.MaxInt64
	}
	m := sim.New(img, cfg)
	var r tracedResult
	for {
		done, err := m.RunSlice(slice)
		if err != nil {
			r.errStr = err.Error()
		}
		if done || err != nil {
			break
		}
	}
	var b bytes.Buffer
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	r.trace = b.Bytes()
	r.retired = m.Retired()
	return r
}

// resized returns the program with every occurrence of the array size
// from in its source replaced by to.
func resized(t *testing.T, p Program, from, to string) Program {
	t.Helper()
	if !strings.Contains(p.Source, from) {
		t.Fatalf("%s: no %q in the source to resize", p.Name, from)
	}
	p.Source = strings.ReplaceAll(p.Source, from, to)
	return p
}

// TestEngineDifferentialTrace: a traced, profiled run of the translated
// engine, uninterrupted and in 997-cycle slices, writes the same trace
// bytes and retirement counts as the reference engine's uninterrupted
// run, on the default machine and on four stressed ones.  Some of the
// stressed runs deadlock; their traces up to the watchdog must match
// too.  Traces are held in memory, so the three long programs run on
// smaller arrays, keeping every run under ~300k cycles.
func TestEngineDifferentialTrace(t *testing.T) {
	progs := []Program{
		Banner, Cal, Dhrystone, Whetstone,
		resized(t, IIR, "4096", "1024"),
		resized(t, DotProduct, "4096", "1024"),
		resized(t, Quicksort, "2000", "500"),
		Livermore5(100),
	}
	machines := []struct {
		name   string
		adjust func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"mem-ports-1", func(c *sim.Config) { c.MemPorts = 1 }},
		{"fifo-depth-3", func(c *sim.Config) { c.FIFODepth = 3 }},
		{"mem-latency-1", func(c *sim.Config) { c.MemLatency = 1 }},
		{"num-scu-1", func(c *sim.Config) { c.NumSCU = 1 }},
	}
	for _, p := range progs {
		for _, level := range []int{0, 3} {
			rp, err := Compile(p, level)
			if err != nil {
				t.Fatalf("%s/O%d: compile: %v", p.Name, level, err)
			}
			img, err := sim.Link(rp)
			if err != nil {
				t.Fatalf("%s/O%d: link: %v", p.Name, level, err)
			}
			for _, mc := range machines {
				mc := mc
				t.Run(fmt.Sprintf("%s/O%d/%s", p.Name, level, mc.name), func(t *testing.T) {
					t.Parallel()
					cfg := sim.DefaultConfig()
					mc.adjust(&cfg)
					want := runTraced(t, img, cfg, sim.EngineReference, 0)
					t.Logf("%d-byte trace, error %q", len(want.trace), want.errStr)
					for _, slice := range []int64{0, 997} {
						got := runTraced(t, img, cfg, sim.EngineTranslated, slice)
						if got.errStr != want.errStr {
							t.Fatalf("slice %d: translated error %q, reference %q", slice, got.errStr, want.errStr)
						}
						if !bytes.Equal(got.trace, want.trace) {
							t.Errorf("slice %d: translated trace differs from the reference (%d vs %d bytes)",
								slice, len(got.trace), len(want.trace))
						}
						if !reflect.DeepEqual(got.retired, want.retired) {
							t.Errorf("slice %d: translated retirement counts differ from the reference", slice)
						}
					}
				})
			}
		}
	}
}
