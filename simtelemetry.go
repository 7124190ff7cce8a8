package wmstream

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"wmstream/internal/exec"
	"wmstream/internal/sim"
	"wmstream/internal/telemetry"
)

// SimOptions selects the telemetry a RunWithTelemetry call collects on
// top of the plain Result.  The zero value collects only the per-unit
// stall attribution (always on — it is a handful of counter arrays).
type SimOptions struct {
	// TraceJSON, when non-nil, receives a Chrome trace-event JSON file
	// at the end of the run (load it in Perfetto or chrome://tracing):
	// one span track per functional unit, counter tracks for FIFO and
	// queue occupancies, cycle N at timestamp N-1 microseconds.
	TraceJSON io.Writer
	// CompileStats, when set together with TraceJSON, prepends one span
	// per optimizer pass to the trace, so a single timeline shows the
	// compile phases followed by the simulated execution.
	CompileStats *CompileStats
	// Profile collects the source-level hot-spot profile (requires the
	// program to carry debug info — compiled from Mini-C, or assembled
	// from a listing with @line annotations).
	Profile bool
	// MaxWall bounds the host wall-clock time of the simulation.  An
	// exhausted budget stops the run with a *WallBudgetError; the
	// statistics and telemetry collected so far are still returned.
	MaxWall time.Duration
	// Progress, when non-nil, receives periodic snapshots of the
	// running simulation (cycles, instructions, memory traffic) plus a
	// final one marked Done, all from the calling goroutine.
	Progress func(RunProgress)
	// ProgressEvery is the minimum interval between Progress calls
	// (zero uses the execution core's default of 500ms).
	ProgressEvery time.Duration
	// ResumeState, when non-nil, restores the run from a blob a prior
	// run's OnCheckpoint produced, so the run continues instead of
	// starting at cycle zero.  The blob must come from the same
	// program and machine configuration; one that fails to restore
	// aborts the run with a *ResumeError before any cycle simulates.
	// A resumed run's final statistics, output, and memory are
	// bit-identical to an uninterrupted run of the same program.
	ResumeState []byte
	// CheckpointEvery, when > 0, serializes the run roughly every that
	// many simulated cycles and hands the blob to OnCheckpoint.
	CheckpointEvery int64
	// OnCheckpoint receives each checkpoint blob — an opaque envelope
	// of the simulator state plus the output emitted so far, accepted
	// back via ResumeState.  A non-nil return aborts the run with that
	// error.  Checkpointing is incompatible with TraceJSON (recorder
	// state is unreplayable).
	OnCheckpoint func(state []byte, p RunProgress) error
	// FinalCheckpoint additionally takes one last checkpoint when the
	// run is stopped by context cancellation (a draining service), so
	// the run can resume after a restart.
	FinalCheckpoint bool
}

// ResumeError reports that SimOptions.ResumeState could not be
// restored — the blob was corrupt, from a different program, or from
// an incompatible machine configuration.  The simulation never
// started; the caller should fall back to an older checkpoint or a
// clean run.
type ResumeError struct {
	Err error
}

func (e *ResumeError) Error() string { return fmt.Sprintf("resuming from checkpoint: %v", e.Err) }
func (e *ResumeError) Unwrap() error { return e.Err }

// Checkpoint envelope: the simulator's SaveState blob captures machine
// state but not the putc/puti output already written, so a resumed
// run alone could not reproduce the full output byte-for-byte.  The
// envelope carries both: magic, a 4-byte little-endian output length,
// the output bytes, then the simulator blob.
const checkpointMagic = "wmckpt-1"

func encodeCheckpoint(output, state []byte) []byte {
	buf := make([]byte, 0, len(checkpointMagic)+4+len(output)+len(state))
	buf = append(buf, checkpointMagic...)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(output)))
	buf = append(buf, n[:]...)
	buf = append(buf, output...)
	buf = append(buf, state...)
	return buf
}

func decodeCheckpoint(blob []byte) (output, state []byte, err error) {
	head := len(checkpointMagic) + 4
	if len(blob) < head || string(blob[:len(checkpointMagic)]) != checkpointMagic {
		return nil, nil, fmt.Errorf("not a %s checkpoint envelope", checkpointMagic)
	}
	n := int(binary.LittleEndian.Uint32(blob[len(checkpointMagic):]))
	if n < 0 || head+n > len(blob) {
		return nil, nil, fmt.Errorf("checkpoint envelope output length %d overruns the %d-byte blob", n, len(blob))
	}
	return blob[head : head+n], blob[head+n:], nil
}

// UnitBreakdown is one functional unit's cycle attribution: every
// simulated cycle charged to issued work, idleness, or a specific
// stall cause.  Issued + Idle + the Stalls values sum to Total, which
// equals the run's cycle count.
type UnitBreakdown struct {
	Unit        string
	Total       int64
	Issued      int64
	Idle        int64
	Utilization float64          // issued fraction of all cycles, percent
	Stalls      map[string]int64 // stall cause -> cycles
}

// LineCost is retirement work attributed to one source line.
type LineCost struct {
	Line    int
	Retires int64
	Text    string // the source line, when the program carries its text
}

// Profile is a source-level hot-spot profile: instruction retirements
// mapped back through the debug line table.
type Profile struct {
	TotalRetires int64      // all retirement events in the run
	Attributed   int64      // retirements whose instruction has a known line
	Lines        []LineCost // hottest first
}

// AttributedPct reports the fraction of retirements with a known
// source line, in percent.
func (p *Profile) AttributedPct() float64 {
	if p.TotalRetires == 0 {
		return 0
	}
	return 100 * float64(p.Attributed) / float64(p.TotalRetires)
}

// Report renders the top lines of the profile (top <= 0 means all).
func (p *Profile) Report(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %.1f%% of %d retirements attributed to source lines\n",
		p.AttributedPct(), p.TotalRetires)
	fmt.Fprintf(&b, "%10s %6s  %s\n", "retires", "line", "source")
	for n, l := range p.Lines {
		if top > 0 && n >= top {
			break
		}
		fmt.Fprintf(&b, "%10d %6d  %s\n", l.Retires, l.Line, l.Text)
	}
	return b.String()
}

// SimResult is Result plus the telemetry of the run.
type SimResult struct {
	Result
	// Units holds the per-unit cycle attribution: IFU, IEU, FEU, then
	// one entry per stream control unit.
	Units []UnitBreakdown
	// Profile is the source-level profile (nil unless requested).
	Profile *Profile

	unitTable string
}

// UnitTable renders the per-unit breakdown as a stable aligned table
// (the output of wmsim -stats).
func (r *SimResult) UnitTable() string { return r.unitTable }

// RunWithTelemetry executes the program like Run and additionally
// collects per-unit stall attribution, an optional Chrome trace, and an
// optional source-level profile.  On simulator errors the telemetry
// collected up to the fault is still returned (and the trace still
// written): the timeline leading into a deadlock is the forensic
// record.
func RunWithTelemetry(p *Program, m Machine, o SimOptions) (SimResult, error) {
	return RunWithTelemetryContext(context.Background(), p, m, o)
}

// RunWithTelemetryContext is RunWithTelemetry with cooperative
// cancellation (see RunContext): a canceled or expired context aborts
// the simulation promptly, and the telemetry collected up to that
// point is still returned.
func RunWithTelemetryContext(ctx context.Context, p *Program, m Machine, o SimOptions) (SimResult, error) {
	var tr *telemetry.Trace
	if o.TraceJSON != nil {
		tr = telemetry.NewTrace()
		if o.CompileStats != nil {
			emitCompileSpans(tr, o.CompileStats)
		}
	}
	r, rerr := simulate(ctx, p, m, o, tr)
	if !r.started {
		return SimResult{}, rerr
	}
	res := SimResult{
		Result:    r.result(),
		unitTable: telemetry.FormatUnits(r.stats.Units),
	}
	for _, u := range r.stats.Units {
		res.Units = append(res.Units, breakdown(u))
	}
	if o.Profile {
		img, _ := p.image()
		res.Profile = buildProfile(img, r.retired, p.rtl.Source)
	}
	if tr != nil {
		if _, werr := tr.WriteTo(o.TraceJSON); werr != nil && rerr == nil {
			rerr = fmt.Errorf("writing trace: %w", werr)
		}
	}
	return res, rerr
}

// simulation is what simulate leaves of a run.
type simulation struct {
	stats   sim.Stats
	output  string
	retired []int64 // per-instruction retirement counts, when profiled
	started bool    // false when the run never began
}

func (r simulation) result() Result {
	return Result{
		Cycles:       r.stats.Cycles,
		Instructions: r.stats.Instructions,
		MemReads:     r.stats.MemReads,
		MemWrites:    r.stats.MemWrites,
		StreamElems:  r.stats.StreamElems,
		Output:       r.output,
	}
}

// simulate is the run body of RunContext and RunWithTelemetryContext:
// it links the program, maps the machine knobs, captures the output
// and runs a pooled machine through the execution core, with the
// resume, checkpoint, budget and progress settings of o.  tr, when
// non-nil, receives the machine's trace; o.Profile collects the
// retirement counts.  A run that never began (the program does not
// link, the engine is unknown, the checkpoint does not restore)
// returns started=false.
func simulate(ctx context.Context, p *Program, m Machine, o SimOptions, tr *telemetry.Trace) (simulation, error) {
	var r simulation
	img, err := p.image()
	if err != nil {
		return r, err
	}
	cfg, err := simConfig(m)
	if err != nil {
		return r, err
	}
	cfg.Ctx = ctx
	var out bytes.Buffer
	cfg.Output = &out
	cfg.TraceSink = tr
	cfg.Profile = o.Profile
	// Machines come from the recycling pool: a serving process reuses
	// memory and telemetry arrays instead of reallocating them per
	// request.
	machine := sim.Acquire(img, cfg)
	defer sim.Release(machine)
	if o.ResumeState != nil {
		priorOut, state, derr := decodeCheckpoint(o.ResumeState)
		if derr != nil {
			return r, &ResumeError{Err: derr}
		}
		if err := machine.RestoreState(state); err != nil {
			return r, &ResumeError{Err: err}
		}
		// Replay the output the interrupted run already produced, so
		// the spliced run's Output is byte-identical to an
		// uninterrupted one.
		out.Write(priorOut)
	}
	var onCkpt func([]byte, exec.Progress) error
	if o.OnCheckpoint != nil {
		onCkpt = func(state []byte, p exec.Progress) error {
			// Called between slices on the Run goroutine, so out is
			// quiescent.
			return o.OnCheckpoint(encodeCheckpoint(out.Bytes(), state), p)
		}
	}
	r.started = true
	r.stats, err = exec.Run(ctx, machine, exec.Options{
		MaxWall:         o.MaxWall,
		OnProgress:      o.Progress,
		ProgressEvery:   o.ProgressEvery,
		CheckpointEvery: o.CheckpointEvery,
		OnCheckpoint:    onCkpt,
		FinalCheckpoint: o.FinalCheckpoint,
	})
	r.output = out.String()
	r.retired = machine.Retired()
	return r, err
}

func breakdown(u telemetry.Unit) UnitBreakdown {
	b := UnitBreakdown{
		Unit:        u.Name,
		Total:       u.Total(),
		Issued:      u.Issued(),
		Idle:        u.Counts[telemetry.CauseIdle],
		Utilization: u.Utilization(),
		Stalls:      map[string]int64{},
	}
	for c := int(telemetry.CauseIdle) + 1; c < telemetry.NumCauses; c++ {
		if n := u.Counts[c]; n > 0 {
			b.Stalls[telemetry.Cause(c).String()] = n
		}
	}
	return b
}

// emitCompileSpans lays the per-pass compile times end to end on the
// compile track, advancing the trace cursor so simulator events start
// after them.
func emitCompileSpans(tr *telemetry.Trace, cs *CompileStats) {
	tr.ProcessName(telemetry.PidCompile, "wm compiler")
	tr.ThreadName(telemetry.PidCompile, 1, "passes")
	for _, ps := range cs.Passes {
		tr.CompileSpan(1, ps.Name, ps.Time.Microseconds())
	}
}

// buildProfile folds per-instruction retirement counts through the
// image's line table.
func buildProfile(img *sim.Image, retired []int64, source string) *Profile {
	p := &Profile{}
	byLine := map[int]int64{}
	for idx, n := range retired {
		if n == 0 {
			continue
		}
		p.TotalRetires += n
		if line := img.Line[idx]; line > 0 {
			p.Attributed += n
			byLine[line] += n
		}
	}
	var srcLines []string
	if source != "" {
		srcLines = strings.Split(source, "\n")
	}
	for line, n := range byLine {
		lc := LineCost{Line: line, Retires: n}
		if line-1 < len(srcLines) {
			lc.Text = strings.TrimSpace(srcLines[line-1])
		}
		p.Lines = append(p.Lines, lc)
	}
	sort.Slice(p.Lines, func(i, j int) bool {
		if p.Lines[i].Retires != p.Lines[j].Retires {
			return p.Lines[i].Retires > p.Lines[j].Retires
		}
		return p.Lines[i].Line < p.Lines[j].Line
	})
	return p
}
