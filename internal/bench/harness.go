package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"wmstream/internal/acode"
	"wmstream/internal/exec"
	"wmstream/internal/minic"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// Result is one benchmark execution.
type Result struct {
	Program string
	Level   int
	// Engine is the simulation engine that executed the run.
	Engine sim.Engine
	Stats  sim.Stats
	Output string
	// HostNS is the host wall-clock time of the simulation itself
	// (linking and running, not compilation), for tracking simulator
	// performance.
	HostNS int64
}

// expand runs the front end and the code expander, producing naive RTL
// with virtual registers — the shared first half of every Compile*
// variant.
func expand(p Program) (*rtl.Program, error) {
	ast, err := minic.Compile(p.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: frontend: %w", p.Name, err)
	}
	rp, err := acode.Gen(ast)
	if err != nil {
		return nil, fmt.Errorf("%s: expand: %w", p.Name, err)
	}
	return rp, nil
}

// Compile builds a benchmark at the given optimization level.
func Compile(p Program, level int) (*rtl.Program, error) {
	return CompileOptions(p, opt.Level(level))
}

// CompileNone runs the front end and code expander only, leaving naive
// RTL with virtual registers (callers pick their own optimization
// pipeline, e.g. opt.OptimizeScalar or a custom opt.Pipeline).
func CompileNone(p Program) (*rtl.Program, error) { return expand(p) }

// CompileOptions builds with explicit optimizer options (ablations).
func CompileOptions(p Program, o opt.Options) (*rtl.Program, error) {
	rp, err := expand(p)
	if err != nil {
		return nil, err
	}
	if err := opt.Optimize(rp, o); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return rp, nil
}

// Run executes a compiled benchmark on the simulator, through the
// same execution core (internal/exec) the CLI and the serving layer
// use, so benchmark numbers measure the loop everything ships with.
func Run(rp *rtl.Program, cfg sim.Config) (sim.Stats, string, error) {
	img, err := sim.Link(rp)
	if err != nil {
		return sim.Stats{}, "", err
	}
	var out bytes.Buffer
	cfg.Output = &out
	m := sim.New(img, cfg)
	stats, err := exec.Run(context.Background(), m, exec.Options{})
	return stats, out.String(), err
}

// Measure compiles and runs one benchmark at one level with the
// default machine, timing the simulation (not the compile).
func Measure(p Program, level int) (Result, error) {
	return MeasureEngine(p, level, sim.EngineTranslated)
}

// MeasureEngine is Measure on an explicit simulation engine, so
// benchmark reports can compare engine speeds on identical work.
func MeasureEngine(p Program, level int, engine sim.Engine) (Result, error) {
	rp, err := Compile(p, level)
	if err != nil {
		return Result{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.Engine = engine
	start := time.Now()
	stats, out, err := Run(rp, cfg)
	host := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("%s O%d: %w", p.Name, level, err)
	}
	return Result{Program: p.Name, Level: level, Engine: engine,
		Stats: stats, Output: out, HostNS: host.Nanoseconds()}, nil
}

// StreamingReduction measures the paper's Table II quantity for one
// program: the percent reduction in cycles executed between the
// optimized compiler without streaming (O2: standard + recurrence) and
// with streaming (O3).
func StreamingReduction(p Program) (without, with int64, pct float64, err error) {
	r2, err := Measure(p, 2)
	if err != nil {
		return 0, 0, 0, err
	}
	r3, err := Measure(p, 3)
	if err != nil {
		return 0, 0, 0, err
	}
	if r2.Output != r3.Output {
		return 0, 0, 0, fmt.Errorf("%s: O2 output %q != O3 output %q", p.Name, r2.Output, r3.Output)
	}
	without, with = r2.Stats.Cycles, r3.Stats.Cycles
	pct = 100 * float64(without-with) / float64(without)
	return without, with, pct, nil
}
