package benchmark

import (
	"context"
	"math/rand"
	"time"
)

// suiteCompile is the compiler-bound workload: closed loop, one
// goroutine, each round compiling the ten suite programs at O0-O3
// through the public compile API in a seed-shuffled order.  An op is
// one compile.  The simulator does no timed work: each compiled
// program runs once after timing, to check its output.
type suiteCompile struct {
	s      *state
	rng    *rand.Rand
	inputs []input
}

func (w *suiteCompile) setup(ctx context.Context) error {
	w.inputs = suiteInputs(w.s.cfg.Expected, []int{0, 1, 2, 3}, "compile")
	_, err := w.round(ctx, nil, nil)
	return err
}

// round compiles every input once, appending each compile's latency,
// scaled by the ruler, to lat[input] when lat is non-nil, and returns
// the programs in input order.
func (w *suiteCompile) round(ctx context.Context, r *ruler, lat [][]float64) ([]*program, error) {
	progs := make([]*program, len(w.inputs))
	for _, i := range w.rng.Perm(len(w.inputs)) {
		in := w.inputs[i]
		if lat != nil {
			r.tick()
		}
		start := time.Now()
		p, err := compile(ctx, in.src, in.level)
		if lat != nil {
			lat[i] = append(lat[i], r.scale(ms(time.Since(start))))
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if w.s.check(err == nil, "compile %s O%d: %v", in.name, in.level, err) {
			progs[i] = p
		}
	}
	return progs, nil
}

func (w *suiteCompile) measure(ctx context.Context, d time.Duration) error {
	lat := make([][]float64, len(w.inputs))
	r := newRuler(compileExp)
	var progs []*program
	for end := time.Now().Add(d); progs == nil || time.Now().Before(end); {
		var err error
		if progs, err = w.round(ctx, r, lat); err != nil {
			return err
		}
	}
	w.s.latencies(r, lat...)

	var cycles int64
	for i, in := range w.inputs {
		if progs[i] == nil {
			continue
		}
		r, err := run(ctx, progs[i], machineSpec{}, "")
		w.s.check(err == nil && r.Output == in.expect, "run %s O%d: %v: output %q, want %q", in.name, in.level, err, r.Output, in.expect)
		if in.level == 3 {
			cycles += r.Cycles
		}
	}
	w.s.set("sim_cycles", float64(cycles))
	return nil
}

func (w *suiteCompile) close() {}

// suiteSim is the simulator-bound workload: closed loop, one goroutine,
// each round running the ten suite programs at O0 and O3 (compiled
// during setup) on the default machine through the public run API, in a
// seed-shuffled order.  An op is one simulation; every output and cycle
// count is checked.
type suiteSim struct {
	s      *state
	rng    *rand.Rand
	inputs []input
	progs  []*program
	cycles []int64 // per input, from the warm-up round
}

func (w *suiteSim) setup(ctx context.Context) error {
	w.inputs = suiteInputs(w.s.cfg.Expected, []int{0, 3}, "run")
	w.progs = make([]*program, len(w.inputs))
	w.cycles = make([]int64, len(w.inputs))
	for i, in := range w.inputs {
		p, err := compile(ctx, in.src, in.level)
		if err != nil {
			return err
		}
		w.progs[i] = p
	}
	return w.round(ctx, nil, nil, true)
}

// round runs every program once, checking its output and cycles
// (recording the cycles instead when warm is set), and appends each
// run's latency, scaled by the ruler, to lat[input] when lat is non-nil.
func (w *suiteSim) round(ctx context.Context, rl *ruler, lat [][]float64, warm bool) error {
	for _, i := range w.rng.Perm(len(w.inputs)) {
		in := w.inputs[i]
		if lat != nil {
			rl.tick()
		}
		start := time.Now()
		r, err := run(ctx, w.progs[i], machineSpec{}, "")
		if lat != nil {
			lat[i] = append(lat[i], rl.scale(ms(time.Since(start))))
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if warm {
			w.cycles[i] = r.Cycles
		}
		w.s.check(err == nil && r.Output == in.expect && r.Cycles == w.cycles[i],
			"run %s O%d: %v: output %q (want %q), %d cycles (want %d)", in.name, in.level, err, r.Output, in.expect, r.Cycles, w.cycles[i])
	}
	return nil
}

func (w *suiteSim) measure(ctx context.Context, d time.Duration) error {
	lat := make([][]float64, len(w.inputs))
	r := newRuler(simExp)
	for end := time.Now().Add(d); len(lat[0]) == 0 || time.Now().Before(end); {
		if err := w.round(ctx, r, lat, false); err != nil {
			return err
		}
	}
	w.s.latencies(r, lat...)
	var cycles int64
	for i, in := range w.inputs {
		if in.level == 3 {
			cycles += w.cycles[i]
		}
	}
	w.s.set("sim_cycles", float64(cycles))
	return nil
}

func (w *suiteSim) close() {}
