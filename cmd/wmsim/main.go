// wmsim runs a WM program on the cycle-level simulator and reports
// execution statistics.  It accepts WM assembly (as produced by wmcc,
// any extension but .mc) or Mini-C source (.mc extension, compiled
// in-process at the chosen -O level).
//
// Usage:
//
//	wmsim [-latency n] [-ports n] [-fifo n] [-scu n] [-watchdog n]
//	      [-engine name] [-O n] [-stats] [-trace out.json] [-profile]
//	      [-progress dur] [-max-wall dur]
//	      [-cpuprofile out.pprof] [-memprofile out.pprof] file.{wm,mc}
//
// -stats prints the per-unit utilization and stall-attribution table:
// every cycle of every functional unit charged to issued work,
// idleness, or the hazard that blocked it.  -trace writes a Chrome
// trace-event JSON file (load it in Perfetto or chrome://tracing) with
// one span track per unit, FIFO-occupancy counter tracks, and — when
// the input is Mini-C — the compile passes on the same timeline.
// -profile prints the source-level hot-spot report (requires debug
// info: a .mc input, or assembly with @line annotations from wmcc -g).
// -progress prints a live progress line (cycles, instructions,
// streamed elements) to stderr at the given interval — the heartbeat
// of a long simulation.  -max-wall bounds the host wall-clock time of
// the simulation; an exhausted budget exits nonzero with the partial
// counts.  Both are served by the shared execution core
// (internal/exec), which runs the engine in bounded slices.
// -cpuprofile and -memprofile write *host* Go profiles of the
// simulator itself (inspect with go tool pprof) — the knobs used to
// tune the simulation engine's own speed.
//
// A run that deadlocks (no forward progress for -watchdog cycles
// beyond the memory latency) or traps prints a machine snapshot —
// which unit is blocked, on which FIFO, and what it was trying to
// issue — before exiting nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"wmstream"
	"wmstream/internal/buildinfo"
	"wmstream/internal/cli"
	"wmstream/internal/sim"
)

func main() {
	latency := flag.Int("latency", 0, "memory latency in cycles (0 = default)")
	ports := flag.Int("ports", 0, "memory ports per cycle (0 = default)")
	fifo := flag.Int("fifo", 0, "FIFO depth (0 = default)")
	scu := flag.Int("scu", 0, "number of stream control units (0 = default)")
	watchdog := flag.Int("watchdog", 0, "deadlock watchdog slack in cycles (0 = default)")
	engine := flag.String("engine", "auto", "simulation engine: auto, translated, or reference (bit-identical)")
	level := flag.Int("O", 3, "optimization level for .mc inputs (0-3)")
	stats := flag.Bool("stats", false, "print execution statistics and the per-unit stall table to stderr")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (view in Perfetto)")
	profile := flag.Bool("profile", false, "print the source-level hot-spot profile to stderr")
	progressEvery := flag.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
	maxWall := flag.Duration("max-wall", 0, "host wall-clock budget for the simulation (0 = unlimited)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile of the simulation to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a host heap profile after the simulation to this file (go tool pprof)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Print("wmsim"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wmsim [flags] file.{wm,mc}")
		os.Exit(2)
	}
	if _, err := sim.ParseEngine(*engine); err != nil {
		fatal(err)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}

	var p *wmstream.Program
	var compileStats *wmstream.CompileStats
	if strings.HasSuffix(path, ".mc") {
		res, err := wmstream.CompileContext(context.Background(), string(src),
			wmstream.CompileConfig{Options: wmstream.LevelOptions(*level)})
		if err != nil {
			// Surface the structured diagnostics the way wmcc does, not
			// just the summary error.
			for _, d := range res.Diagnostics {
				fmt.Fprintf(os.Stderr, "wmsim: %s\n", d)
			}
			fatal(err)
		}
		p = res.Program
		compileStats = res.Stats
	} else {
		p, err = wmstream.Assemble(string(src))
		if err != nil {
			fatal(err)
		}
	}

	m := wmstream.DefaultMachine()
	if *latency > 0 {
		m.MemLatency = *latency
	}
	if *ports > 0 {
		m.MemPorts = *ports
	}
	if *fifo > 0 {
		m.FIFODepth = *fifo
	}
	if *scu > 0 {
		m.NumSCU = *scu
	}
	if *watchdog > 0 {
		m.WatchdogSlack = *watchdog
	}
	m.Engine = *engine

	var opts wmstream.SimOptions
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		opts.TraceJSON = traceFile
		opts.CompileStats = compileStats
	}
	opts.Profile = *profile
	opts.MaxWall = *maxWall
	var lastProgress wmstream.RunProgress
	if *progressEvery > 0 || *maxWall > 0 {
		// Track progress whenever a wall budget is set, so a budget
		// exhaustion can report the partial counts; print only if asked.
		opts.ProgressEvery = *progressEvery
		print := *progressEvery > 0
		opts.Progress = func(p wmstream.RunProgress) {
			lastProgress = p
			if p.Done || !print {
				return // final numbers come from -stats or the error path
			}
			fmt.Fprintf(os.Stderr, "wmsim: progress cycles=%d instructions=%d streamed=%d elapsed=%v\n",
				p.Cycles, p.Instructions, p.StreamElems, p.Elapsed.Round(time.Millisecond))
		}
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		cpuFile, err = os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}

	res, err := wmstream.RunWithTelemetry(p, m, opts)
	// The profile must be finalized even when the run failed (a deadlock
	// or trap exits nonzero below, bypassing defers).
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if cerr := cpuFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memProfile != "" {
		f, merr := os.Create(*memProfile)
		if merr != nil {
			fatal(merr)
		}
		runtime.GC() // settle allocations so the heap profile reflects live data
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fatal(merr)
		}
		if merr := f.Close(); merr != nil {
			fatal(merr)
		}
	}
	if res.Output != "" {
		fmt.Print(res.Output)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, cli.RenderError("wmsim", err))
		var wb *wmstream.WallBudgetError
		if errors.As(err, &wb) && lastProgress.Cycles > 0 {
			fmt.Fprintf(os.Stderr, "wmsim: partial cycles=%d instructions=%d memreads=%d memwrites=%d streamed=%d\n",
				lastProgress.Cycles, lastProgress.Instructions,
				lastProgress.MemReads, lastProgress.MemWrites, lastProgress.StreamElems)
		}
		os.Exit(1)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "cycles=%d instructions=%d memreads=%d memwrites=%d streamed=%d\n",
			res.Cycles, res.Instructions, res.MemReads, res.MemWrites, res.StreamElems)
		fmt.Fprint(os.Stderr, res.UnitTable())
	}
	if *profile {
		if res.Profile == nil || res.Profile.TotalRetires == 0 {
			fmt.Fprintln(os.Stderr, "wmsim: no profile data")
		} else {
			fmt.Fprint(os.Stderr, res.Profile.Report(20))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, cli.RenderError("wmsim", err))
	os.Exit(1)
}
