package wmstream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/sim"
	"wmstream/internal/telemetry"
)

// poolRun is what a run leaves: statistics (with the per-unit cycle
// attribution), output, and a digest of the final memory.
type poolRun struct {
	stats sim.Stats
	out   string
	mem   [sha256.Size]byte
}

// simRun builds a machine with build (sim.New or sim.Acquire), runs
// it to the end and returns what the run left along with the machine.
func simRun(build func(*sim.Image, sim.Config) *sim.Machine, img *sim.Image, cfg sim.Config) (poolRun, *sim.Machine, error) {
	var out bytes.Buffer
	cfg.Output = &out
	m := build(img, cfg)
	stats, err := m.Run()
	return poolRun{stats, out.String(), sha256.Sum256(m.Mem())}, m, err
}

// compareRun fails the test unless a pooled run left what a fresh
// machine left.
func compareRun(t *testing.T, label string, got, want poolRun) {
	t.Helper()
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: stats differ from a fresh machine:\nfresh:  %+v\npooled: %+v", label, want.stats, got.stats)
	}
	if got.out != want.out {
		t.Errorf("%s: output %q, want %q", label, got.out, want.out)
	}
	if got.mem != want.mem {
		t.Errorf("%s: final memory differs from a fresh machine", label)
	}
}

type poolProgram struct {
	name string
	img  *sim.Image
}

// linkSuite compiles and links the suite at O0 and O3.
func linkSuite(t *testing.T) []poolProgram {
	t.Helper()
	var progs []poolProgram
	for _, p := range bench.Programs() {
		for _, level := range []int{O0, O3} {
			rp, err := bench.Compile(p, level)
			if err != nil {
				t.Fatal(err)
			}
			img, err := sim.Link(rp)
			if err != nil {
				t.Fatal(err)
			}
			progs = append(progs, poolProgram{fmt.Sprintf("%s/O%d", p.Name, level), img})
		}
	}
	return progs
}

// recycle runs dirty on a pooled machine, releases it, and acquires a
// machine for img under cfg, retrying while the pool hands out another
// machine (a sync.Pool may drop what it was given), so the returned
// machine is, when ok, the one dirty ran on.
func recycle(t *testing.T, dirty func() *sim.Machine, img *sim.Image, cfg sim.Config) (m *sim.Machine, ok bool) {
	t.Helper()
	for try := 0; try < 4; try++ {
		d := dirty()
		sim.Release(d)
		if m = sim.Acquire(img, cfg); m == d {
			return m, true
		}
		sim.Release(m)
	}
	return sim.Acquire(img, cfg), false
}

// TestPoolCrossImage: machines of one shape serve every program.  The
// suite at O0 and O3 runs one program after another on pooled
// machines, with the engine, the memory latency, the cycle limit and a
// latency baked into decode changing between acquires; then one
// program runs under changing decode latencies and engines.  Every run
// must leave the statistics, per-unit attribution, output and memory a
// fresh sim.New machine leaves.  A machine that deadlocked, was
// canceled mid-run or ran traced, and one restored from another
// program's checkpoint, must do the same.
func TestPoolCrossImage(t *testing.T) {
	progs := linkSuite(t)
	variants := []func(*sim.Config){
		func(*sim.Config) {},
		func(c *sim.Config) { c.MemLatency = 8; c.MaxCycles = 1 << 30 },
		func(c *sim.Config) { c.MemLatency = 3; c.DivLatency = 14 },
	}
	configs := make([]sim.Config, len(progs))
	wants := make([]poolRun, len(progs))
	for i, p := range progs {
		cfg := sim.DefaultConfig()
		variants[i%len(variants)](&cfg)
		// Each program runs one level on each engine, the two longest
		// runs (bubblesort and sieve at O0) on the translated one.
		cfg.Engine = sim.Engine((i/2 + i + 1) % 2)
		configs[i] = cfg
		want, _, err := simRun(sim.New, p.img, cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", p.name, err)
		}
		wants[i] = want
	}

	// The pooled sequence runs back to back, so nothing but the runs
	// themselves comes between a release and the next acquire.
	var prev *sim.Machine
	crossImage := 0
	for i, p := range progs {
		label := fmt.Sprintf("%s %s", p.name, configs[i].Engine)
		got, m, err := simRun(sim.Acquire, p.img, configs[i])
		if err != nil {
			t.Fatalf("%s pooled: %v", label, err)
		}
		compareRun(t, label, got, wants[i])
		if m == prev {
			crossImage++
		}
		prev = m
		sim.Release(m)
	}
	t.Logf("%d of %d acquires reused a machine last used by another program", crossImage, len(progs)-1)
	if crossImage == 0 {
		t.Error("no acquire reused a machine across programs")
	}

	byName := map[string]*sim.Image{}
	for _, p := range progs {
		byName[p.name] = p.img
	}

	// One program on one machine, changing only the latencies decode
	// bakes in and the engine: each change must rebind the tables.
	whet := byName["whetstone/O3"]
	decodeLatencies := func(c *sim.Config) { c.DivLatency = 20; c.MathLatency = 30; c.CvtLatency = 7 }
	var whetCfgs []sim.Config
	for _, c := range []struct {
		eng    sim.Engine
		adjust func(*sim.Config)
	}{
		{sim.EngineTranslated, func(*sim.Config) {}},
		{sim.EngineTranslated, decodeLatencies},
		{sim.EngineReference, decodeLatencies},
		{sim.EngineReference, func(*sim.Config) {}},
		{sim.EngineTranslated, func(*sim.Config) {}},
	} {
		cfg := sim.DefaultConfig()
		c.adjust(&cfg)
		cfg.Engine = c.eng
		whetCfgs = append(whetCfgs, cfg)
	}
	whetWants := make([]poolRun, len(whetCfgs))
	for i, cfg := range whetCfgs {
		want, _, err := simRun(sim.New, whet, cfg)
		if err != nil {
			t.Fatalf("whetstone/O3 fresh: %v", err)
		}
		whetWants[i] = want
	}
	for i, cfg := range whetCfgs {
		got, m, err := simRun(sim.Acquire, whet, cfg)
		if err != nil {
			t.Fatalf("whetstone/O3 pooled: %v", err)
		}
		compareRun(t, fmt.Sprintf("whetstone/O3 %s div=%d math=%d cvt=%d", cfg.Engine, cfg.DivLatency, cfg.MathLatency, cfg.CvtLatency), got, whetWants[i])
		sim.Release(m)
	}

	after := func(label string, dirty func(cfg sim.Config) *sim.Machine, cfg sim.Config) {
		t.Helper()
		img := byName["dhrystone/O0"]
		want, _, err := simRun(sim.New, img, cfg)
		if err != nil {
			t.Fatalf("%s: fresh dhrystone/O0: %v", label, err)
		}
		var out bytes.Buffer
		acfg := cfg
		acfg.Output = &out
		m, ok := recycle(t, func() *sim.Machine { return dirty(cfg) }, img, acfg)
		if !ok {
			t.Logf("%s: the pool dropped the dirtied machine on every try", label)
		}
		stats, err := m.Run()
		if err != nil {
			t.Fatalf("%s: dhrystone/O0: %v", label, err)
		}
		compareRun(t, label+", then dhrystone/O0", poolRun{stats, out.String(), sha256.Sum256(m.Mem())}, want)
		sim.Release(m)
	}

	// Quicksort at O3 keeps two streams live, so one stream control
	// unit deadlocks it.
	oneSCU := sim.DefaultConfig()
	oneSCU.NumSCU = 1
	after("deadlocked quicksort/O3", func(cfg sim.Config) *sim.Machine {
		_, m, err := simRun(sim.Acquire, byName["quicksort/O3"], cfg)
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("quicksort/O3 with one SCU: got %v, want a deadlock", err)
		}
		return m
	}, oneSCU)

	after("canceled bubblesort/O0", func(cfg sim.Config) *sim.Machine {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx = ctx
		m := sim.Acquire(byName["bubblesort/O0"], cfg)
		if done, err := m.RunSlice(50_000); done || err != nil {
			t.Fatalf("bubblesort/O0 ended before the cancel (done=%v err=%v)", done, err)
		}
		cancel()
		if _, err := m.Run(); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled bubblesort/O0: got %v, want context.Canceled", err)
		}
		return m
	}, sim.DefaultConfig())

	// A traced, profiled run on a machine that ran other programs
	// untraced leaves the trace and retirement counts New's leaves.
	after("traced cal/O3", func(cfg sim.Config) *sim.Machine {
		traced := func(build func(*sim.Image, sim.Config) *sim.Machine) (*sim.Machine, string) {
			tcfg := cfg
			tcfg.TraceSink = telemetry.NewTrace()
			tcfg.Profile = true
			m := build(byName["cal/O3"], tcfg)
			if _, err := m.Run(); err != nil {
				t.Fatalf("traced cal/O3: %v", err)
			}
			var b strings.Builder
			if _, err := tcfg.TraceSink.WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			return m, b.String()
		}
		fresh, want := traced(sim.New)
		m, got := traced(sim.Acquire)
		if got != want {
			t.Errorf("traced cal/O3: pooled trace differs from New's (%d vs %d bytes)", len(got), len(want))
		}
		if !reflect.DeepEqual(m.Retired(), fresh.Retired()) {
			t.Error("traced cal/O3: pooled retirement counts differ from New's")
		}
		return m
	}, sim.DefaultConfig())

	// A checkpoint of quicksort/O3 restored into a machine whose last
	// run was cal/O0.
	t.Run("checkpoint", func(t *testing.T) {
		cfg := sim.DefaultConfig()
		img := byName["quicksort/O3"]
		want, _, err := simRun(sim.New, img, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		scfg := cfg
		scfg.Output = &out
		src := sim.New(img, scfg)
		if done, err := src.RunSlice(100_000); done || err != nil {
			t.Fatalf("quicksort/O3 ended before the checkpoint (done=%v err=%v)", done, err)
		}
		blob, err := src.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		m, ok := recycle(t, func() *sim.Machine {
			_, d, err := simRun(sim.Acquire, byName["cal/O0"], cfg)
			if err != nil {
				t.Fatalf("cal/O0: %v", err)
			}
			return d
		}, img, scfg)
		if !ok {
			t.Log("the pool dropped cal's machine on every try")
		}
		if err := m.RestoreState(blob); err != nil {
			t.Fatalf("RestoreState: %v", err)
		}
		stats, err := m.Run()
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		compareRun(t, "quicksort/O3 resumed", poolRun{stats, out.String(), sha256.Sum256(m.Mem())}, want)
		sim.Release(m)
	})
}
