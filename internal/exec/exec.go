// Package exec is the engine-agnostic execution core shared by every
// consumer of the simulator: the wmsim CLI, the wmrepro benchmark
// harness, and wmserved's synchronous and asynchronous tiers all
// drive a sim.Machine through Run instead of hand-rolling a
// run-to-completion loop.
//
// Run advances the machine in bounded cycle slices.  Between slices —
// and only between slices, so the simulation itself stays
// bit-identical to an uninterrupted run — it can observe a wall-clock
// budget, publish progress snapshots, write checkpoints
// (sim.Machine.SaveState), and notice context cancellation even for
// machines without Config.Ctx wired.
package exec

import (
	"context"
	"fmt"
	"time"

	"wmstream/internal/obs"
	"wmstream/internal/sim"
)

// DefaultSlice is the per-slice cycle budget when Options.Slice is
// unset: large enough that slice bookkeeping vanishes against the
// cost of simulating, small enough that budgets, progress, and
// cancellation are checked many times per host second.
const DefaultSlice = 1 << 16

// DefaultProgressEvery is the progress-callback throttle when
// Options.ProgressEvery is unset.
const DefaultProgressEvery = 500 * time.Millisecond

// Progress is a point-in-time snapshot of a run.
type Progress struct {
	// Cycles is the live simulated clock (unlike sim.Stats.Cycles it
	// is populated while the run is still going).
	Cycles       int64
	Instructions int64
	MemReads     int64
	MemWrites    int64
	StreamElems  int64
	// Elapsed is host wall-clock time since Run started.
	Elapsed time.Duration
	// Done marks the final snapshot of a Run call — completion,
	// failure, cancellation, or budget exhaustion.  Every stop path
	// emits exactly one, so observers always see terminal counts.
	Done bool
}

// Options configures Run.  The zero value runs to completion
// with default slicing and no observers.
type Options struct {
	// Slice is the cycle budget of one slice (<= 0 uses DefaultSlice).
	Slice int64
	// MaxWall bounds host wall-clock time; when exceeded the run stops
	// with a *WallBudgetError and the partial statistics stand.
	MaxWall time.Duration
	// OnProgress, when non-nil, receives throttled progress snapshots
	// plus one final Done snapshot, all from the Run goroutine.
	OnProgress func(Progress)
	// ProgressEvery is the minimum interval between OnProgress calls
	// (<= 0 uses DefaultProgressEvery).
	ProgressEvery time.Duration
	// CheckpointEvery, when > 0, serializes machine state roughly
	// every that many simulated cycles and hands it to OnCheckpoint.
	CheckpointEvery int64
	// OnCheckpoint receives each checkpoint; a non-nil return aborts
	// the run with that error.
	OnCheckpoint func(state []byte, p Progress) error
	// FinalCheckpoint, together with OnCheckpoint, serializes one last
	// checkpoint when the run is stopped by context cancellation —
	// before the machine is finished — so a draining service can
	// resume the run after a restart instead of replaying it from
	// cycle zero.  Best effort: a failed final save never masks the
	// cancellation error.
	FinalCheckpoint bool
}

// WallBudgetError reports a run stopped by Options.MaxWall.  The
// machine state is intact; the caller may resume it with another Run.
type WallBudgetError struct {
	Budget  time.Duration
	Elapsed time.Duration
	Cycles  int64 // simulated cycles completed when the budget expired
}

func (e *WallBudgetError) Error() string {
	return fmt.Sprintf("exec: wall-clock budget %v exhausted after %v (%d cycles simulated)",
		e.Budget, e.Elapsed.Round(time.Millisecond), e.Cycles)
}

// Run drives the machine until completion, failure, cancellation, or
// wall-budget exhaustion, and returns the machine's statistics as of
// the stop.  Abandoned runs (cancellation, budget) flush any trace
// sink so the partial timeline survives; their machine remains
// resumable unless it reached a terminal state itself.
func Run(ctx context.Context, m *sim.Machine, o Options) (sim.Stats, error) {
	if o.Slice <= 0 {
		o.Slice = DefaultSlice
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = DefaultProgressEvery
	}
	start := time.Now()
	lastEmit := start
	lastCkpt := m.Progress().Cycles
	emit := func(p Progress) {
		if o.OnProgress != nil {
			o.OnProgress(p)
		}
	}
	// When the context carries a request trace (internal/obs), each
	// slice and checkpoint becomes a child span; traceSpan is nil on
	// untraced runs and every obs call below no-ops.
	traceSpan := obs.FromContext(ctx)
	for {
		if err := ctx.Err(); err != nil {
			if o.FinalCheckpoint && o.OnCheckpoint != nil {
				// Snapshot before Finish: a finished machine refuses
				// SaveState.
				if state, serr := m.SaveState(); serr == nil {
					o.OnCheckpoint(state, snapshot(m, false, time.Since(start)))
				}
			}
			m.Finish()
			emit(snapshot(m, true, time.Since(start)))
			return m.Stats(), err
		}
		sliceStart := m.Progress().Cycles
		var sliceSpan *obs.Span
		if traceSpan != nil {
			sliceSpan = traceSpan.StartChild("sim.slice")
			sliceSpan.SetKind(obs.KindSim)
		}
		done, err := m.RunSlice(o.Slice)
		now := time.Now()
		p := snapshot(m, done || err != nil, now.Sub(start))
		if sliceSpan != nil {
			sliceSpan.SetAttrInt("cycles", p.Cycles-sliceStart)
			sliceSpan.SetAttrInt("cycle_start", sliceStart)
			if err != nil {
				sliceSpan.SetError(err.Error())
			}
			sliceSpan.End()
		}
		if done || err != nil {
			emit(p)
			return m.Stats(), err
		}
		if o.OnProgress != nil && now.Sub(lastEmit) >= o.ProgressEvery {
			lastEmit = now
			emit(p)
		}
		if o.CheckpointEvery > 0 && p.Cycles-lastCkpt >= o.CheckpointEvery {
			lastCkpt = p.Cycles
			ckptSpan := traceSpan.StartChild("checkpoint")
			state, serr := m.SaveState()
			if serr == nil && o.OnCheckpoint != nil {
				serr = o.OnCheckpoint(state, p)
			}
			ckptSpan.SetAttrInt("cycle", p.Cycles)
			if serr != nil {
				ckptSpan.SetError(serr.Error())
			}
			ckptSpan.End()
			if serr != nil {
				m.Finish()
				emit(snapshot(m, true, now.Sub(start)))
				return m.Stats(), fmt.Errorf("exec: checkpoint at cycle %d: %w", p.Cycles, serr)
			}
		}
		if o.MaxWall > 0 {
			if elapsed := now.Sub(start); elapsed > o.MaxWall {
				m.Finish()
				emit(snapshot(m, true, elapsed))
				return m.Stats(), &WallBudgetError{Budget: o.MaxWall, Elapsed: elapsed, Cycles: p.Cycles}
			}
		}
	}
}

func snapshot(m *sim.Machine, done bool, elapsed time.Duration) Progress {
	st := m.Progress()
	return Progress{
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		MemReads:     st.MemReads,
		MemWrites:    st.MemWrites,
		StreamElems:  st.StreamElems,
		Elapsed:      elapsed,
		Done:         done,
	}
}
