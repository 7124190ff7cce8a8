// Package sim is a cycle-level simulator for the WM architecture — the
// reproduction of the "simulator capable of determining exact cycle
// counts (including memory delays)" that the paper's Table II uses.
//
// The model follows the paper's architecture description:
//
//   - An instruction fetch unit (IFU) dispatches one instruction per
//     cycle into per-unit FIFO queues and itself executes control
//     transfers: unconditional jumps are free, conditional jumps consume
//     an entry from the executing unit's condition-code FIFO (stalling
//     while it is empty), and jump-on-stream-not-exhausted tracks the
//     count of the stream bound to a FIFO register.
//   - The integer and floating-point execution units (IEU/FEU) issue in
//     order from their queues, one instruction per cycle, through the
//     two-stage ALU pipeline of Figure 2: a result is not available to
//     the *inner* operands of the next instruction (two-cycle distance)
//     but forwards to *outer* operands with one-cycle distance — the
//     property that lets the one-instruction dot-product loop run at one
//     element per cycle.
//   - Register 0 (and register 1 in streaming mode) of each unit is a
//     pair of FIFOs.  Loads compute an address on the IEU and the datum
//     arrives in the destination class's input FIFO after the memory
//     latency; reading r0/f0 dequeues.  Stores pair an output-FIFO datum
//     with an address.
//   - Stream control units (SCUs) execute sin/sout instructions,
//     generating one memory request per cycle per stream, subject to
//     FIFO backpressure and memory port limits.
//   - Memory is modeled with a configurable access latency and a
//     configurable number of request ports per cycle.  Scalar loads
//     check pending stores for address conflicts (store-queue
//     interlock); stream reads deliberately do not, reproducing the
//     hazard that makes the compiler refuse to stream loops with
//     leftover memory recurrences.
package sim

import (
	"context"
	"fmt"
	"io"

	"wmstream/internal/telemetry"
)

// Engine selects the simulation loop.  Both engines produce identical
// cycle counts, statistics, telemetry attribution, memory images and
// faults (the differential tests in internal/bench assert this across
// the whole benchmark suite); the translated engine gets there sooner
// by running ahead-of-time compiled Go closures instead of decoding on
// every cycle, skipping provably-stalled stretches and batching stream
// transfers.
type Engine uint8

const (
	// EngineTranslated, the zero value, is the binary-translating
	// engine: the image is lowered once to per-instruction Go closures
	// (cached process-wide by image fingerprint, see translate.go) and
	// the hot loop runs no decode, no expression interpretation and no
	// hazard-kind dispatch.  A run with Config.TraceSink set, which
	// needs per-cycle observation, runs on the reference engine instead.
	EngineTranslated Engine = iota
	// EngineReference forces the plain cycle-by-cycle interpreter, the
	// specification the translated engine is tested against.
	EngineReference
)

// String names the engine the way CLI flags and the wire protocol
// spell it.
func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "translated"
}

// ParseEngine maps a flag or wire engine name onto an Engine.  It is
// the one decoder of engine names: "", "auto" and "translated" name
// the translated engine, "reference" the reference engine, and any
// other name is an error listing the valid ones.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "auto", "translated":
		return EngineTranslated, nil
	case "reference":
		return EngineReference, nil
	default:
		return EngineTranslated, fmt.Errorf("unknown engine %q (want auto, translated, or reference)", name)
	}
}

// Config sets the machine parameters.  The zero value is unusable; use
// DefaultConfig.
type Config struct {
	// MemLatency is the number of cycles between a memory read being
	// accepted and its datum entering the input FIFO.
	MemLatency int
	// MemPorts is how many memory requests (reads + writes) can be
	// accepted per cycle.
	MemPorts int
	// FIFODepth bounds each input/output data FIFO.
	FIFODepth int
	// CCDepth bounds each condition-code FIFO.
	CCDepth int
	// QueueDepth bounds each execution unit's instruction queue.
	QueueDepth int
	// NumSCU is the number of stream control units (concurrent streams).
	NumSCU int
	// DivLatency is the extra latency of divide/remainder.
	DivLatency int
	// MathLatency is the latency of the FEU math operations
	// (sqrt/sin/...).
	MathLatency int
	// CvtLatency is the latency of int<->float conversions.
	CvtLatency int
	// StackTop is the initial stack pointer.
	StackTop int64
	// MemSize is the size of simulated memory in bytes.
	MemSize int
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
	// WatchdogSlack is how many cycles beyond MemLatency the machine
	// may go without forward progress before the run is declared
	// deadlocked (*DeadlockError).  Zero or negative uses the
	// DefaultConfig value.
	WatchdogSlack int
	// Output receives putc/puti/putd output (may be nil).
	Output io.Writer
	// TraceSink, when non-nil, receives Chrome trace events: one span
	// track per functional unit plus FIFO/queue occupancy counters.
	// When nil the hot path pays a single pointer check and allocates
	// nothing.
	TraceSink *telemetry.Trace
	// Profile enables per-instruction retirement counting for the
	// source-level profiler (Machine.Retired).
	Profile bool
	// Engine selects the simulation loop (see Engine).  The zero value
	// is the translated engine, used whenever tracing permits.
	Engine Engine
	// Ctx, when non-nil, cancels the simulation cooperatively: both
	// engine loops poll its Done channel every cancelCheckInterval
	// simulated cycles or so and return its error, so a serving
	// deadline bounds even a runaway simulation.  Cancellation timing
	// is engine-dependent; a canceled run's partial statistics are not
	// comparable across engines (completed runs remain byte-identical).
	Ctx context.Context
}

// DefaultConfig returns the parameters used throughout the paper
// reproduction experiments.
func DefaultConfig() Config {
	return Config{
		MemLatency:    6,
		MemPorts:      2,
		FIFODepth:     8,
		CCDepth:       8,
		QueueDepth:    8,
		NumSCU:        4,
		DivLatency:    10,
		MathLatency:   12,
		CvtLatency:    3,
		StackTop:      1 << 20,
		MemSize:       1<<20 + 4096,
		MaxCycles:     2_000_000_000,
		WatchdogSlack: 10000,
	}
}

// Stats reports what a run did.
type Stats struct {
	Cycles        int64
	Dispatched    int64 // instructions dispatched by the IFU
	IntIssued     int64 // instructions issued by the IEU
	FloatIssued   int64 // instructions issued by the FEU
	Branches      int64
	BranchStalls  int64 // cycles the IFU waited on an empty CC FIFO
	MemReads      int64
	MemWrites     int64
	StreamElems   int64 // elements moved by SCUs
	LoadStalls    int64 // issue attempts blocked on an empty input FIFO
	IFUStallFull  int64 // cycles the IFU waited on a full unit queue
	Instructions  int64 // total instructions executed (all units + IFU)
	StreamsOpened int64

	// Units is the per-unit cycle attribution (IFU, IEU, FEU, SCUs):
	// every simulated cycle of every unit charged to exactly one cause,
	// so each unit's counts sum to Cycles on a successful run.
	Units []telemetry.Unit
}
