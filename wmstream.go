// Package wmstream reproduces the compiler and architecture described
// in Benitez & Davidson, "Code Generation for Streaming: an
// Access/Execute Mechanism" (ASPLOS 1991): an optimizing Mini-C
// compiler whose recurrence-detection and streaming algorithms target
// the WM decoupled access/execute architecture, plus a cycle-level WM
// simulator and the scalar machine models used by the paper's Table I.
//
// The high-level flow:
//
//	prog, _ := wmstream.Compile(src, wmstream.O3)   // Mini-C -> optimized WM RTL
//	res, _  := wmstream.Run(prog, wmstream.DefaultMachine())
//	fmt.Println(res.Cycles, res.Output)
//
// Optimization levels: O0 naive code (register assignment only), O1
// classic scalar optimizations, O2 adds the paper's recurrence
// optimization, O3 adds streaming (the full pipeline).
package wmstream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"wmstream/internal/acode"
	"wmstream/internal/diag"
	"wmstream/internal/exec"
	"wmstream/internal/minic"
	"wmstream/internal/opt"
	"wmstream/internal/rtl"
	"wmstream/internal/sim"
)

// Optimization levels.
const (
	O0 = 0 // naive code
	O1 = 1 // standard scalar optimizations
	O2 = 2 // + recurrence detection and optimization
	O3 = 3 // + streaming
)

// Program is a compiled WM program.  It is immutable once built and
// safe for concurrent runs; do not copy it by value.
type Program struct {
	rtl *rtl.Program

	// The linked image is built on the first run and shared by every
	// later one, so repeated runs neither relink nor re-fingerprint.
	linkOnce sync.Once
	img      *sim.Image
	linkErr  error
}

// image returns the program's linked simulator image, linking it on
// first use.
func (p *Program) image() (*sim.Image, error) {
	p.linkOnce.Do(func() { p.img, p.linkErr = sim.Link(p.rtl) })
	return p.img, p.linkErr
}

// Options gives fine-grained control over the optimizer for ablation
// studies; most callers use Compile with a level instead.
type Options struct {
	Standard       bool  // classic scalar optimizations
	Recurrence     bool  // the paper's recurrence algorithm
	Stream         bool  // the paper's streaming algorithm
	StrengthReduce bool  // induction-variable strength reduction
	Combine        bool  // dual-operation instruction combining
	MinTrip        int64 // smallest trip count worth streaming (default 4)
	// MaxRecurrenceDegree bounds how many registers a recurrence may
	// consume — the paper: a recurrence of degree d needs d+1 registers
	// (default 4).
	MaxRecurrenceDegree int64
}

// LevelOptions returns the Options corresponding to an optimization
// level.
func LevelOptions(level int) Options {
	o := opt.Level(level)
	return Options{
		Standard:            o.Standard,
		Recurrence:          o.Recurrence,
		Stream:              o.Stream,
		StrengthReduce:      o.StrengthReduce,
		Combine:             o.Combine,
		MinTrip:             o.MinTrip,
		MaxRecurrenceDegree: o.MaxRecurrenceDegree,
	}
}

func (o Options) optOptions() opt.Options {
	return opt.Options{
		Standard:            o.Standard,
		Recurrence:          o.Recurrence,
		Stream:              o.Stream,
		StrengthReduce:      o.StrengthReduce,
		Combine:             o.Combine,
		MinTrip:             o.MinTrip,
		MaxRecurrenceDegree: o.MaxRecurrenceDegree,
	}
}

// PassStat is one pass's aggregate over a compilation: how often it
// ran, how often it changed the code, its wall time, the cumulative
// instruction-count delta it caused, and (for fixpoint groups, whose
// names are bracketed) the rounds needed to converge.
type PassStat struct {
	Name       string
	Calls      int
	Fires      int
	Time       time.Duration
	InstrDelta int
	Rounds     int
}

// CompileStats reports per-pass instrumentation for one compilation.
type CompileStats struct {
	Passes []PassStat    // in first-invocation order
	Funcs  int           // functions optimized
	Total  time.Duration // summed pass time (over all workers)

	opt *opt.Stats // the recorded statistics, rendered by Table
}

// Table renders the statistics as an aligned per-pass table (the
// output of wmcc -stats), slowest pass first.
func (s *CompileStats) Table() string {
	if s.opt == nil {
		return ""
	}
	return s.opt.Table()
}

// Severity orders diagnostics from informational to fatal.  The values
// mirror the internal diagnostics layer (package internal/diag).
type Severity int

const (
	// SeverityNote is informational.
	SeverityNote Severity = Severity(diag.Note)
	// SeverityWarning flags something suspicious that does not affect
	// the compiled code.
	SeverityWarning Severity = Severity(diag.Warning)
	// SeverityDegraded means the compiler contained a faulty
	// optimization pass — the function was rolled back to its last
	// good state, so the output is correct but less optimized.  Strict
	// compilation promotes Degraded to an error.
	SeverityDegraded Severity = Severity(diag.Degraded)
	// SeverityError means compilation failed.
	SeverityError Severity = Severity(diag.Error)
)

func (s Severity) String() string { return diag.Severity(s).String() }

// Diagnostic is one structured compilation event.  Zero-valued fields
// are unknown: a frontend error has Line/Col but no Pass; an optimizer
// degradation has Pass and Func but no source position.
type Diagnostic struct {
	Severity  Severity
	Stage     string // "frontend", "expand", "opt"
	Line, Col int    // 1-based source position (0 when not tied to source)
	Pass      string // optimizer pass or fixpoint group
	Func      string // function provenance
	Msg       string
}

// String renders the diagnostic in a compact single-line form, e.g.
// "degraded: opt: main: pass Combine panicked: index out of range".
func (d Diagnostic) String() string {
	return diag.Diagnostic{
		Sev:   diag.Severity(d.Severity),
		Stage: d.Stage,
		Pos:   minic.Pos{Line: d.Line, Col: d.Col},
		Pass:  d.Pass,
		Func:  d.Func,
		Msg:   d.Msg,
	}.String()
}

// CompileConfig bundles everything CompileContext needs beyond the
// source text.
type CompileConfig struct {
	// Options selects the optimizations (see LevelOptions).
	Options Options
	// Strict promotes Degraded diagnostics — optimization passes the
	// fault-containment layer rolled back — to compilation errors.
	Strict bool
	// Debug, when non-nil, receives vpo-style RTL dumps (each
	// function's listing before optimization and after every pass that
	// changed it) and runs the RTL invariant checker after every pass.
	Debug io.Writer
	// PassBudget overrides the sandbox's per-pass wall-clock budget
	// (zero uses the default).
	PassBudget time.Duration
}

// CompileResult is the full outcome of a compilation: the program (nil
// when compilation failed), per-pass statistics, and every structured
// diagnostic the pipeline emitted.  Degraded diagnostics mean some
// optimization was rolled back — the program is correct, just less
// optimized than requested.
type CompileResult struct {
	Program     *Program
	Stats       *CompileStats
	Diagnostics []Diagnostic
}

// Compile translates Mini-C source to an optimized WM program.
func Compile(src string, level int) (*Program, error) {
	res, err := CompileContext(context.Background(), src, CompileConfig{Options: LevelOptions(level)})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// CompileContext compiles with full control and reporting: the result
// carries the per-pass statistics and the structured diagnostics of
// every stage, and under Strict a contained-but-degraded optimization
// fails the compilation instead of being reported and tolerated.  The
// optimizer checks ctx between passes (and between fixpoint rounds),
// so a canceled or expired context aborts the compilation promptly
// with ctx's error.
func CompileContext(ctx context.Context, src string, cfg CompileConfig) (*CompileResult, error) {
	res := &CompileResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	ast, err := minic.Compile(src)
	if err != nil {
		d := Diagnostic{Severity: SeverityError, Stage: "frontend", Msg: err.Error()}
		var me *minic.Error
		if errors.As(err, &me) {
			d.Line, d.Col, d.Msg = me.Pos.Line, me.Pos.Col, me.Msg
		}
		res.Diagnostics = append(res.Diagnostics, d)
		return res, fmt.Errorf("frontend: %w", err)
	}
	p, err := acode.Gen(ast)
	if err != nil {
		res.Diagnostics = append(res.Diagnostics,
			Diagnostic{Severity: SeverityError, Stage: "expand", Msg: err.Error()})
		return res, fmt.Errorf("expand: %w", err)
	}
	octx := opt.NewContext(cfg.Options.optOptions())
	octx.Debug = cfg.Debug
	octx.Verify = cfg.Debug != nil
	octx.PassBudget = cfg.PassBudget
	octx.Ctx = ctx
	if err := opt.WMPipeline(octx.Opts).Run(p, octx); err != nil {
		res.Diagnostics = append(res.Diagnostics,
			Diagnostic{Severity: SeverityError, Stage: "opt", Msg: err.Error()})
		return res, err
	}
	for _, d := range octx.Diags() {
		res.Diagnostics = append(res.Diagnostics, Diagnostic{
			Severity: Severity(d.Sev),
			Stage:    d.Stage,
			Line:     d.Pos.Line,
			Col:      d.Pos.Col,
			Pass:     d.Pass,
			Func:     d.Func,
			Msg:      d.Msg,
		})
	}
	st := octx.Stats()
	res.Stats = &CompileStats{Funcs: st.Funcs, Total: st.Total, opt: st}
	for _, ps := range st.Passes() {
		res.Stats.Passes = append(res.Stats.Passes, PassStat{
			Name:       ps.Name,
			Calls:      ps.Calls,
			Fires:      ps.Fires,
			Time:       ps.Time,
			InstrDelta: ps.InstrDelta,
			Rounds:     ps.Rounds,
		})
	}
	res.Program = &Program{rtl: p}
	if cfg.Strict {
		for _, d := range res.Diagnostics {
			if d.Severity >= SeverityDegraded {
				return res, fmt.Errorf("strict: %s", d)
			}
		}
	}
	return res, nil
}

// Assemble parses a program in WM assembler syntax (the format Listing
// emits), for running hand-written code on the simulator.  The parsed
// program is validated against the RTL structural invariants, so a
// branch to a label the program never defines is reported here rather
// than surfacing as a simulator fault.
func Assemble(asm string) (*Program, error) {
	p, err := rtl.Parse(asm)
	if err != nil {
		return nil, err
	}
	if err := rtl.CheckProgram(p, true); err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	return &Program{rtl: p}, nil
}

// Listing renders the program as annotated assembly in the style of
// the paper's figures.
func (p *Program) Listing() string { return p.rtl.String() }

// ListingDebug is Listing with "@line" debug annotations (the output
// of wmcc -g); Assemble reads them back, so the source-level profiler
// works across an assembly round trip.
func (p *Program) ListingDebug() string { return p.rtl.StringDebug() }

// FuncListing renders one function, or "" if absent.
func (p *Program) FuncListing(name string) string {
	f := p.rtl.Func(name)
	if f == nil {
		return ""
	}
	return f.Listing()
}

// Machine configures the simulated WM implementation.
type Machine struct {
	MemLatency    int   // cycles from memory request to data arrival
	MemPorts      int   // memory requests accepted per cycle
	FIFODepth     int   // entries per data FIFO
	QueueDepth    int   // entries per unit instruction queue
	NumSCU        int   // stream control units
	WatchdogSlack int   // no-progress cycles beyond MemLatency before a deadlock is declared
	MaxCycles     int64 // simulated-cycle bound before a runaway run traps (0 = default)
	// Engine selects the simulation loop: "", "auto" and "translated"
	// name the translated engine, "reference" the plain cycle-by-cycle
	// interpreter.  Both engines produce identical results, traces
	// included; the knob exists so cross-engine identity (including
	// checkpoint/resume across engines) can be asserted from the
	// outside, and so benchmarks can pin a loop.  Runs fail with an
	// error naming the valid engines for any other name.
	Engine string
}

// DefaultMachine returns the configuration used by the reproduction
// experiments.
func DefaultMachine() Machine {
	c := sim.DefaultConfig()
	return Machine{
		MemLatency:    c.MemLatency,
		MemPorts:      c.MemPorts,
		FIFODepth:     c.FIFODepth,
		QueueDepth:    c.QueueDepth,
		NumSCU:        c.NumSCU,
		WatchdogSlack: c.WatchdogSlack,
		MaxCycles:     c.MaxCycles,
	}
}

// Typed simulator failures, re-exported from the simulator so callers
// can dissect a failed Run with errors.As:
//
//	var dl *wmstream.DeadlockError
//	if errors.As(err, &dl) { fmt.Println(dl.Snapshot) }
//
// A DeadlockError means the machine made no forward progress for
// WatchdogSlack cycles beyond the memory latency; its Snapshot names
// the blocked unit, the FIFO it is waiting on, and the instruction at
// each queue head.  A TrapError is a machine fault (memory access out
// of range, bad return address, cycle-bound exhaustion).
type (
	DeadlockError = sim.DeadlockError
	TrapError     = sim.TrapError
	Snapshot      = sim.Snapshot
)

// WallBudgetError reports a run stopped by SimOptions.MaxWall before
// the program finished; the partial statistics collected so far are
// still returned alongside it.
type WallBudgetError = exec.WallBudgetError

// RunProgress is a point-in-time snapshot of a running simulation,
// delivered through SimOptions.Progress.
type RunProgress = exec.Progress

// TransCacheStats reports the process-wide translated-engine cache:
// how many compiled translations are resident, the LRU capacity, and
// cumulative hit/miss/eviction counts since process start.
type TransCacheStats = sim.TransCacheStats

// TranslationCacheStats snapshots the translation cache counters, for
// exporters and debug pages.
func TranslationCacheStats() TransCacheStats { return sim.TranslationCacheStats() }

// Result reports a simulation run.
type Result struct {
	Cycles       int64
	Instructions int64
	MemReads     int64
	MemWrites    int64
	StreamElems  int64
	Output       string
}

// simConfig maps the public Machine knobs onto a simulator Config; an
// unknown engine name is an error.
func simConfig(m Machine) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	if m.MemLatency > 0 {
		cfg.MemLatency = m.MemLatency
	}
	if m.MemPorts > 0 {
		cfg.MemPorts = m.MemPorts
	}
	if m.FIFODepth > 0 {
		cfg.FIFODepth = m.FIFODepth
	}
	if m.QueueDepth > 0 {
		cfg.QueueDepth = m.QueueDepth
	}
	if m.NumSCU > 0 {
		cfg.NumSCU = m.NumSCU
	}
	if m.WatchdogSlack > 0 {
		cfg.WatchdogSlack = m.WatchdogSlack
	}
	if m.MaxCycles > 0 {
		cfg.MaxCycles = m.MaxCycles
	}
	var err error
	cfg.Engine, err = sim.ParseEngine(m.Engine)
	return cfg, err
}

// Run executes the program to completion on the simulated WM machine.
func Run(p *Program, m Machine) (Result, error) {
	return RunContext(context.Background(), p, m)
}

// RunContext is Run with cooperative cancellation: the simulator polls
// ctx every few thousand simulated cycles, so a canceled or expired
// context aborts even a runaway simulation promptly with ctx's error
// (which errors.Is-matches context.Canceled / context.DeadlineExceeded
// rather than the simulator's own DeadlockError/TrapError).
func RunContext(ctx context.Context, p *Program, m Machine) (Result, error) {
	r, err := simulate(ctx, p, m, SimOptions{}, nil)
	if err != nil {
		return Result{Output: r.output}, err
	}
	return r.result(), nil
}
