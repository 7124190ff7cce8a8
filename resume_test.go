package wmstream

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// resumeSrc produces output both before and after any mid-run
// checkpoint, so resume tests exercise the output-splicing envelope.
const resumeSrc = `
double a[256];
int main(void) {
    int i, r;
    double sum;
    for (i = 0; i < 256; i++)
        a[i] = (i & 15) * 0.25;
    sum = 0.0;
    for (r = 0; r < 400; r++) {
        for (i = 0; i < 256; i++)
            sum = sum + a[i];
        if ((r & 63) == 0) puti(r);
    }
    putd(sum);
    return 0;
}
`

// TestCheckpointResumeIdentity interrupts a run at a checkpoint and
// resumes it — same engine and across engines — requiring final
// statistics and output byte-identical to an uninterrupted run.
func TestCheckpointResumeIdentity(t *testing.T) {
	prog, err := Compile(resumeSrc, O3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, tc := range []struct {
		name          string
		first, second string // Engine knob for the interrupted and resumed halves
	}{
		{"auto", "auto", "auto"},
		{"translated-to-reference", "translated", "reference"},
		{"reference-to-translated", "reference", "translated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := DefaultMachine()
			m.Engine = tc.second
			want, err := RunWithTelemetry(prog, m, SimOptions{})
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			// Interrupted half: cancel the context from the first
			// checkpoint callback, keeping the freshest blob.
			var blob []byte
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mi := DefaultMachine()
			mi.Engine = tc.first
			_, err = RunWithTelemetryContext(ctx, prog, mi, SimOptions{
				CheckpointEvery: 300,
				OnCheckpoint: func(state []byte, p RunProgress) error {
					blob = state
					cancel()
					return nil
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run error = %v, want context.Canceled", err)
			}
			if blob == nil {
				t.Fatal("no checkpoint captured")
			}

			got, err := RunWithTelemetry(prog, m, SimOptions{ResumeState: blob})
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("resumed result differs:\nuninterrupted: %+v\nresumed:       %+v", want.Result, got.Result)
			}
		})
	}
}

// TestFinalCheckpointOnCancel: with FinalCheckpoint set, cancellation
// itself produces a resumable blob even when no periodic checkpoint
// interval elapsed.
func TestFinalCheckpointOnCancel(t *testing.T) {
	prog, err := Compile(resumeSrc, O3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := RunWithTelemetry(prog, DefaultMachine(), SimOptions{})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = RunWithTelemetryContext(ctx, prog, DefaultMachine(), SimOptions{
		// Enormous interval: only the final-on-cancel checkpoint fires.
		CheckpointEvery: 1 << 40,
		FinalCheckpoint: true,
		ProgressEvery:   1, // emit on the first slice
		Progress: func(p RunProgress) {
			if !p.Done && p.Cycles > 0 {
				cancel()
			}
		},
		OnCheckpoint: func(state []byte, p RunProgress) error {
			blob = state
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if blob == nil {
		t.Fatal("FinalCheckpoint produced no blob on cancellation")
	}
	got, err := RunWithTelemetry(prog, DefaultMachine(), SimOptions{ResumeState: blob})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("resumed result differs:\nuninterrupted: %+v\nresumed:       %+v", want.Result, got.Result)
	}
}

// TestResumeStateCorrupt: damaged or foreign blobs surface as a typed
// *ResumeError before any cycle simulates; they never panic.
func TestResumeStateCorrupt(t *testing.T) {
	prog, err := Compile(resumeSrc, O3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var blob []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	RunWithTelemetryContext(ctx, prog, DefaultMachine(), SimOptions{
		CheckpointEvery: 300,
		OnCheckpoint: func(state []byte, p RunProgress) error {
			blob = state
			cancel()
			return nil
		},
	})
	if blob == nil {
		t.Fatal("no checkpoint captured")
	}
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"foreign", []byte("junk that is no envelope")},
		{"truncated", blob[:len(blob)/3]},
		// A flipped bit in the envelope's length word; flips deeper in
		// the value stream are the durable store's job (SHA-256 content
		// addressing), not the decoder's.
		{"bit-flip", func() []byte {
			b := append([]byte(nil), blob...)
			b[10] ^= 0x40 // high byte of the output-length word
			return b
		}()},
		{"empty", []byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunWithTelemetry(prog, DefaultMachine(), SimOptions{ResumeState: tc.bad})
			var re *ResumeError
			if !errors.As(err, &re) {
				t.Fatalf("error = %v, want *ResumeError", err)
			}
		})
	}
}

// TestEngineKnob: the Machine.Engine string selects real engines and
// both produce identical results; a name no engine answers to fails
// every run entry point instead of quietly running the default.
func TestEngineKnob(t *testing.T) {
	prog, err := Compile(resumeSrc, O3)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var outs []Result
	for _, eng := range []string{"auto", "translated", "reference", ""} {
		m := DefaultMachine()
		m.Engine = eng
		res, err := Run(prog, m)
		if err != nil {
			t.Fatalf("engine %q: %v", eng, err)
		}
		outs = append(outs, res)
	}
	for i := 1; i < len(outs); i++ {
		if !reflect.DeepEqual(outs[0], outs[i]) {
			t.Errorf("engine results diverge: %+v vs %+v", outs[0], outs[i])
		}
	}
	if !bytes.Contains([]byte(outs[0].Output), []byte("192000")) {
		// 400 rounds over 256 elements of (i&15)*0.25 sum to 192000.
		t.Errorf("unexpected output %q", outs[0].Output)
	}

	for _, eng := range []string{"refrence", "fast"} {
		m := DefaultMachine()
		m.Engine = eng
		_, errRun := Run(prog, m)
		_, errCtx := RunContext(context.Background(), prog, m)
		_, errTel := RunWithTelemetry(prog, m, SimOptions{})
		for _, err := range []error{errRun, errCtx, errTel} {
			if err == nil || !strings.Contains(err.Error(), "unknown engine") ||
				!strings.Contains(err.Error(), "want auto, translated, or reference") {
				t.Errorf("engine %q: error = %v, want an unknown-engine error naming the valid engines", eng, err)
			}
		}
	}
}
