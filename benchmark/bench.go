// Package benchmark is the repository's benchmark: four workloads that
// drive the compiler, the simulator and wmserved the way their users
// do, each reporting end-to-end metrics from an untraced run and
// per-layer metrics from a traced one (README.md).  The command is
// cmd/wmbench.
package benchmark

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Workloads names the workloads in BENCHMARK.json order.
var Workloads = []string{"suite-compile", "suite-sim", "serve-mixed", "jobs-repeat"}

// Config is one benchmark run.
type Config struct {
	Workload string
	// Seed generates the inputs: the same seed gives the same inputs.
	Seed int64
	// Duration is how long the run measures.
	Duration time.Duration
	// Trace selects the traced run, which reports per-layer metrics
	// instead of end-to-end ones.
	Trace bool
	// Setups is how many times the workload is set up from scratch;
	// setup_s is the median (default 5).
	Setups int
	// Expected maps each suite program to the output it must print
	// (default: testdata/expected.json).
	Expected map[string]string
	// Spans, when non-nil, receives the traced run's spans as Chrome
	// trace-event JSON.
	Spans io.Writer
	// Log, when non-nil, receives the first failures in full.
	Log io.Writer
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what a run reports: whether every output was correct, how
// many operations it attempted and how many failed (an error, a shed
// request or a wrong output), and the metrics.  Notes are diagnostics
// for a human reader, outside the result line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"-"`
}

// state accumulates one run's outcome; its methods are safe for
// concurrent use by the load generator's clients.
type state struct {
	cfg       Config
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	metrics map[string]Metric
	notes   []string
	logged  int
}

// check books one operation, failed unless ok.
func (s *state) check(ok bool, format string, args ...any) bool {
	s.attempted.Add(1)
	if !ok {
		s.failed.Add(1)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.logged < 10 && s.cfg.Log != nil {
			s.logged++
			fmt.Fprintf(s.cfg.Log, "wmbench: failed: "+format+"\n", args...)
		}
	}
	return ok
}

// fail books one failed operation.
func (s *state) fail(format string, args ...any) { s.check(false, format, args...) }

// set records a metric under its unit from the metric tables.  A value
// that is not a number (no samples to take a median of) fails the run.
func (s *state) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("benchmark: unknown metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.fail("metric %s has no value", name)
		v = 0
	}
	s.mu.Lock()
	s.metrics[name] = Metric{v, u}
	s.mu.Unlock()
}

// workload is one traffic shape.  setup builds its state from scratch
// (releasing any earlier state first); measure runs the timed phase and
// the correctness checks after it; close releases the state.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration) error
	close()
}

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Setups <= 0 {
		cfg.Setups = 5
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("duration must be positive")
	}
	if cfg.Expected == nil {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		cfg.Expected = exp
	}
	s := &state{cfg: cfg, metrics: map[string]Metric{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var w workload
	var probeInputs []input
	// setupExp is the sensitivity to the host of the workload's set-up:
	// compiling, except where simulations or jobs dominate it.
	setupExp := compileExp
	switch cfg.Workload {
	case "suite-compile":
		w = &suiteCompile{s: s, rng: rng}
		probeInputs = suiteInputs(cfg.Expected, []int{0, 1, 2, 3}, "compile")
	case "suite-sim":
		w = &suiteSim{s: s, rng: rng}
		probeInputs = suiteInputs(cfg.Expected, []int{0, 3}, "run")
		setupExp = simExp
	case "serve-mixed":
		w = &serveMixed{s: s}
		g := newMixGen(cfg.Seed, 0)
		for n := 0; n < 400; n++ {
			probeInputs = append(probeInputs, g.next(n))
		}
	case "jobs-repeat":
		w = &jobsRepeat{s: s}
		probeInputs = jobInputs(cfg.Expected)
		setupExp = jobExp
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(Workloads, ", "))
	}

	if cfg.Trace {
		p := &probe{s: s, rng: rng, workload: cfg.Workload, inputs: probeInputs}
		if err := p.run(ctx, cfg.Duration); err != nil {
			return nil, err
		}
	} else {
		defer w.close()
		// Each set-up is scaled by the ruler measured just before it,
		// like the workload's latencies, so that a slow phase of the host
		// does not read as set-up work.
		r := newRuler(setupExp)
		var setups []float64
		for i := 0; i < cfg.Setups; i++ {
			r.tick()
			start := time.Now()
			if err := w.setup(ctx); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, r.scale(time.Since(start).Seconds()))
		}
		setup := median(setups)
		s.set("setup_s", setup)
		s.note(r, "setup_s", setup)
		if err := w.measure(ctx, cfg.Duration); err != nil {
			return nil, err
		}
		s.set("peak_rss_mb", peakRSS())
	}
	res := &Result{
		Attempted: s.attempted.Load(),
		Failed:    s.failed.Load(),
		Metrics:   s.metrics,
		Notes:     s.notes,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// peakRSS is the process's peak resident set in MiB (VmHWM), or the
// memory obtained from the OS where /proc is unavailable.
func peakRSS() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// latencies sets latency_p50_ms from per-operation samples in ms, given
// in groups of like operations: the geometric mean of the groups'
// medians.  The suite workloads group by (program, level), because a
// median pooled over a fixed mix of programs that differ by 100x falls
// on the boundary between two programs.  The serving workloads pass
// their traffic mix as one group, which makes it the plain median.  r
// is the ruler that scaled the samples to the defining host, or nil for
// wall times.
func (s *state) latencies(r *ruler, groups ...[]float64) {
	logSum := 0.0
	for _, g := range groups {
		logSum += math.Log(median(g))
	}
	p50 := math.Exp(logSum / float64(len(groups)))
	s.set("latency_p50_ms", p50)
	if r != nil {
		s.note(r, "latency_p50_ms", p50)
	}
}

// note records, for a human reader, how the ruler read during the run
// and what a metric it scaled would have read in wall time.
func (s *state) note(r *ruler, name string, v float64) {
	ref := median(append([]float64(nil), r.samples...))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notes = append(s.notes, fmt.Sprintf("ruler: %d measurements, median %.4g ms (%.4g ms on the defining host); %s in wall time: about %.4g",
		len(r.samples), ref, refMs, name, r.unscale(v)))
}
