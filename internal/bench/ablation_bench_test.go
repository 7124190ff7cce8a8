// Ablation benchmarks over the design parameters called out in
// DESIGN.md, plus raw compiler/simulator throughput:
//
//	BenchmarkAblation*    FIFO depth / ports / latency / min-trip /
//	                      combining sweeps
//	BenchmarkCompiler     compilations of the whole suite per second
//	BenchmarkSimulator    simulated instructions per second
package bench

import (
	"fmt"
	"testing"

	"wmstream/internal/opt"
	"wmstream/internal/sim"
)

// benchConfigured runs the Livermore program under a machine variant.
func benchConfigured(b *testing.B, level int, mutate func(*sim.Config)) int64 {
	b.Helper()
	p, err := Compile(Livermore5(2000), level)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	stats, _, err := Run(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return stats.Cycles
}

// BenchmarkAblationFIFODepth sweeps the FIFO depth: shallow FIFOs
// throttle the stream units' ability to run ahead.
func BenchmarkAblationFIFODepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16, 64} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				c := benchConfigured(b, 3, func(cfg *sim.Config) { cfg.FIFODepth = depth })
				b.ReportMetric(float64(c), "cycles")
			}
		})
	}
}

// BenchmarkAblationMemPorts sweeps memory ports: the streamed loop
// needs two reads and a write per iteration.
func BenchmarkAblationMemPorts(b *testing.B) {
	for _, ports := range []int{1, 2, 4} {
		ports := ports
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				c := benchConfigured(b, 3, func(cfg *sim.Config) { cfg.MemPorts = ports })
				b.ReportMetric(float64(c), "cycles")
			}
		})
	}
}

// BenchmarkAblationMemLatency shows the access/execute property: the
// decoupled, streamed code is far less sensitive to memory latency
// than the unstreamed code.
func BenchmarkAblationMemLatency(b *testing.B) {
	for _, level := range []int{1, 3} {
		for _, lat := range []int{1, 4, 8, 16} {
			level, lat := level, lat
			b.Run(fmt.Sprintf("O%d/latency=%d", level, lat), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					c := benchConfigured(b, level, func(cfg *sim.Config) { cfg.MemLatency = lat })
					b.ReportMetric(float64(c), "cycles")
				}
			})
		}
	}
}

// BenchmarkAblationMinTrip sweeps the paper's step-1 threshold on a
// program full of short loops.
func BenchmarkAblationMinTrip(b *testing.B) {
	src := `
int t[6];
int main(void) {
    int i, r, s;
    s = 0;
    for (r = 0; r < 2000; r++) {
        for (i = 0; i < 6; i++)
            t[i] = i + r;
        for (i = 0; i < 6; i++)
            s = s + t[i];
    }
    puti(s);
    return 0;
}`
	for _, minTrip := range []int64{1, 4, 16} {
		minTrip := minTrip
		b.Run(fmt.Sprintf("mintrip=%d", minTrip), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				o := opt.Level(3)
				o.MinTrip = minTrip
				p, err := CompileOptions(Program{Name: "short", Source: src}, o)
				if err != nil {
					b.Fatal(err)
				}
				stats, _, err := Run(p, sim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationCombine measures WM's dual-operation instruction
// combining (off vs on) on the recurrence-optimized Livermore loop.
func BenchmarkAblationCombine(b *testing.B) {
	for _, combine := range []bool{false, true} {
		combine := combine
		b.Run(fmt.Sprintf("combine=%v", combine), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				o := opt.Level(2)
				o.Combine = combine
				p, err := CompileOptions(Livermore5(2000), o)
				if err != nil {
					b.Fatal(err)
				}
				stats, _, err := Run(p, sim.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkAblationRecurrenceStream crosses the two headline passes:
// streaming is blocked where a memory recurrence survives (step 2a), so
// the combination matters.
func BenchmarkAblationRecurrenceStream(b *testing.B) {
	for _, rec := range []bool{false, true} {
		for _, stream := range []bool{false, true} {
			rec, stream := rec, stream
			b.Run(fmt.Sprintf("rec=%v/stream=%v", rec, stream), func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					o := opt.Level(1)
					o.Recurrence = rec
					o.Stream = stream
					p, err := CompileOptions(Livermore5(2000), o)
					if err != nil {
						b.Fatal(err)
					}
					stats, _, err := Run(p, sim.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(stats.Cycles), "cycles")
				}
			})
		}
	}
}

// BenchmarkCompiler measures raw compilation speed over the suite.
func BenchmarkCompiler(b *testing.B) {
	progs := Programs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, p := range progs {
			if _, err := Compile(p, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileLevels measures compilation of the suite plus
// Livermore 5 at each optimization level, with allocations: the
// compile work of the benchmark's suite-compile workload, one level per
// sub-benchmark.
func BenchmarkCompileLevels(b *testing.B) {
	progs := append(Programs(), Livermore5(2000))
	for lvl := 0; lvl <= 3; lvl++ {
		b.Run(fmt.Sprintf("O%d", lvl), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, p := range progs {
					if _, err := Compile(p, lvl); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSimulator measures simulator throughput (simulated
// instructions per second) on the quicksort benchmark.
func BenchmarkSimulator(b *testing.B) {
	p, err := Compile(Quicksort, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs int64
	for n := 0; n < b.N; n++ {
		stats, _, err := Run(p, sim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		instrs += stats.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkSimulatorEngines measures every engine on identical work
// (quicksort at O3), so engine-to-engine speedups come from one binary
// on one host rather than from numbers recorded months apart.
func BenchmarkSimulatorEngines(b *testing.B) {
	p, err := Compile(Quicksort, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []sim.Engine{sim.EngineTranslated, sim.EngineReference} {
		b.Run(e.String(), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Engine = e
			var instrs int64
			for n := 0; n < b.N; n++ {
				stats, _, err := Run(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				instrs += stats.Instructions
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
		})
	}
}

// BenchmarkSimulatorSuite measures simulator throughput over the ten
// suite programs (Table II plus Livermore 5) at O0 and O3 on the default
// machine, each run on a pooled machine as a server would: the
// simulator-bound mix of scalar, memory-bound and streaming code.
func BenchmarkSimulatorSuite(b *testing.B) {
	var imgs []*sim.Image
	for _, p := range append(Programs(), Livermore5(2000)) {
		for _, level := range []int{0, 3} {
			rp, err := Compile(p, level)
			if err != nil {
				b.Fatal(err)
			}
			img, err := sim.Link(rp)
			if err != nil {
				b.Fatal(err)
			}
			imgs = append(imgs, img)
		}
	}
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	var instrs int64
	for n := 0; n < b.N; n++ {
		for _, img := range imgs {
			m := sim.Acquire(img, cfg)
			stats, err := m.Run()
			sim.Release(m)
			if err != nil {
				b.Fatal(err)
			}
			instrs += stats.Instructions
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}
