package exec_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"wmstream/internal/bench"
	"wmstream/internal/exec"
	"wmstream/internal/sim"
)

// The external test package lets these tests build machines through
// internal/bench (which itself runs through exec) without an import
// cycle.

// machine compiles the Livermore loop at O0 (the slowest code, so
// runs span many slices) and returns a fresh machine plus its output
// buffer.
func machine(t *testing.T, n int) (*sim.Machine, *bytes.Buffer) {
	t.Helper()
	rp, err := bench.Compile(bench.Livermore5(n), 0)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := sim.Link(rp)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	cfg := sim.DefaultConfig()
	var out bytes.Buffer
	cfg.Output = &out
	return sim.New(img, cfg), &out
}

// uninterrupted is the baseline every sliced/budgeted/resumed run must
// reproduce exactly.
func uninterrupted(t *testing.T, n int) (sim.Stats, string) {
	t.Helper()
	m, out := machine(t, n)
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return stats, out.String()
}

func TestRunMatchesUninterrupted(t *testing.T) {
	const n = 500
	wantStats, wantOut := uninterrupted(t, n)
	m, out := machine(t, n)
	stats, err := exec.Run(context.Background(), m, exec.Options{Slice: 64})
	if err != nil {
		t.Fatalf("exec.Run: %v", err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch:\nbaseline: %+v\nexec:     %+v", wantStats, stats)
	}
	if out.String() != wantOut {
		t.Errorf("output %q, want %q", out.String(), wantOut)
	}
}

// TestWallBudget: an exhausted budget stops the run with a
// *WallBudgetError carrying the partial cycle count, and the machine
// stays resumable — a second Run completes it bit-identically.
func TestWallBudget(t *testing.T) {
	const n = 2000
	wantStats, wantOut := uninterrupted(t, n)
	m, out := machine(t, n)
	_, err := exec.Run(context.Background(), m, exec.Options{Slice: 64, MaxWall: time.Nanosecond})
	var wb *exec.WallBudgetError
	if !errors.As(err, &wb) {
		t.Fatalf("err = %v, want *WallBudgetError", err)
	}
	if wb.Cycles <= 0 {
		t.Errorf("budget error reports %d cycles, want > 0", wb.Cycles)
	}
	if wb.Budget != time.Nanosecond {
		t.Errorf("budget error reports budget %v, want 1ns", wb.Budget)
	}
	stats, err := exec.Run(context.Background(), m, exec.Options{})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch after budget resume:\nbaseline: %+v\nresumed:  %+v", wantStats, stats)
	}
	if out.String() != wantOut {
		t.Errorf("output %q, want %q", out.String(), wantOut)
	}
}

// TestProgressEmission: snapshots are monotonic in cycles and the
// final one is marked Done with the terminal counts.
func TestProgressEmission(t *testing.T) {
	const n = 500
	m, _ := machine(t, n)
	var got []exec.Progress
	stats, err := exec.Run(context.Background(), m, exec.Options{
		Slice:         64,
		ProgressEvery: time.Nanosecond,
		OnProgress:    func(p exec.Progress) { got = append(got, p) },
	})
	if err != nil {
		t.Fatalf("exec.Run: %v", err)
	}
	if len(got) < 2 {
		t.Fatalf("got %d progress snapshots, want several", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Cycles < got[i-1].Cycles {
			t.Errorf("snapshot %d went backwards: %d after %d", i, got[i].Cycles, got[i-1].Cycles)
		}
		if got[i-1].Done {
			t.Errorf("snapshot %d arrived after a Done snapshot", i)
		}
	}
	last := got[len(got)-1]
	if !last.Done {
		t.Errorf("final snapshot not marked Done")
	}
	if last.Cycles != stats.Cycles || last.Instructions != stats.Instructions {
		t.Errorf("final snapshot (%d cycles, %d instr) disagrees with stats (%d, %d)",
			last.Cycles, last.Instructions, stats.Cycles, stats.Instructions)
	}
}

// TestCheckpointResume: a run resumed from its last mid-flight
// checkpoint finishes with the same statistics and memory as the
// original.
func TestCheckpointResume(t *testing.T) {
	const n = 2000
	rp, err := bench.Compile(bench.Livermore5(n), 0)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := sim.Link(rp)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	cfg := sim.DefaultConfig()
	var out bytes.Buffer
	cfg.Output = &out
	m := sim.New(img, cfg)

	var lastState []byte
	var lastCkpt exec.Progress
	stats, err := exec.Run(context.Background(), m, exec.Options{
		Slice:           256,
		CheckpointEvery: 1000,
		OnCheckpoint: func(state []byte, p exec.Progress) error {
			lastState = append(lastState[:0], state...)
			lastCkpt = p
			return nil
		},
	})
	if err != nil {
		t.Fatalf("exec.Run: %v", err)
	}
	if lastState == nil {
		t.Fatal("no checkpoint was taken")
	}
	if lastCkpt.Cycles <= 0 || lastCkpt.Cycles >= stats.Cycles {
		t.Fatalf("last checkpoint at cycle %d, want mid-run (total %d)", lastCkpt.Cycles, stats.Cycles)
	}

	var out2 bytes.Buffer
	cfg2 := sim.DefaultConfig()
	cfg2.Output = &out2
	m2 := sim.New(img, cfg2)
	if err := m2.RestoreState(lastState); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	stats2, err := exec.Run(context.Background(), m2, exec.Options{})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(stats2, stats) {
		t.Errorf("stats mismatch:\noriginal: %+v\nresumed:  %+v", stats, stats2)
	}
	if !bytes.Equal(m.Mem(), m2.Mem()) {
		t.Errorf("final memory images differ")
	}
	// Livermore prints only at the end, after the checkpoint: the
	// resumed run must produce the identical tail.
	if out2.String() != out.String() {
		t.Errorf("output %q, want %q", out2.String(), out.String())
	}
}

// TestCheckpointCallbackError: a failing OnCheckpoint aborts the run
// with a wrapped error.
func TestCheckpointCallbackError(t *testing.T) {
	m, _ := machine(t, 2000)
	sentinel := errors.New("sink full")
	_, err := exec.Run(context.Background(), m, exec.Options{
		Slice:           256,
		CheckpointEvery: 500,
		OnCheckpoint:    func([]byte, exec.Progress) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

// TestCancel: a canceled context stops the run between slices with the
// context's error; the machine remains resumable.
func TestCancel(t *testing.T) {
	const n = 4000
	wantStats, wantOut := uninterrupted(t, n)
	m, out := machine(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	_, err := exec.Run(ctx, m, exec.Options{
		Slice:         64,
		ProgressEvery: time.Nanosecond,
		OnProgress: func(p exec.Progress) {
			if !fired && !p.Done {
				fired = true
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	stats, err := exec.Run(context.Background(), m, exec.Options{})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch after cancel resume:\nbaseline: %+v\nresumed:  %+v", wantStats, stats)
	}
	if out.String() != wantOut {
		t.Errorf("output %q, want %q", out.String(), wantOut)
	}
}
