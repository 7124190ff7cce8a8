package sim

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// checkpointImage builds a streaming reduction long enough (hundreds
// of cycles) that a mid-run checkpoint captures live FIFOs, an active
// SCU, pending register writes, and in-flight memory traffic.
func checkpointImage(t *testing.T) *Image {
	t.Helper()
	const n = 512
	data := make([]byte, n*4)
	for k := 0; k < n; k++ {
		binary.LittleEndian.PutUint32(data[k*4:], uint32(k))
	}
	src := `
.entry main
.data w ` + strconv.Itoa(n*4) + ` align=4 init=` + hexOf(data) + `
.func main
r5 := ` + strconv.Itoa(n) + `
r6 := _w
sin32r r0, r6, r5, 4
r2 := 0
L1:
r2 := (r2 + r0)
jnd r0, L1
puti r2
halt
.end
`
	p, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

func runUninterrupted(t *testing.T, img *Image, cfg Config) (Stats, string, []byte) {
	t.Helper()
	var out bytes.Buffer
	cfg.Output = &out
	m := New(img, cfg)
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	return stats, out.String(), m.Mem()
}

// longLatency stretches memory and long-latency operations so that
// the translated engine's fast-forwards cover long stretches of cycles.
func longLatency(c *Config) {
	c.MemLatency = 24
	c.DivLatency = 40
	c.MathLatency = 48
}

// TestStateRoundTripMidRun checkpoints a run mid-flight, restores it
// into a freshly built machine, finishes there, and requires the
// result to be bit-identical to the uninterrupted run — statistics
// (including telemetry sums), output, and final memory.  The "fast"
// case runs the translated engine on a long-latency machine and
// checkpoints at a cycle inside an idle skip, which the slice limit
// must cut short.
func TestStateRoundTripMidRun(t *testing.T) {
	img := checkpointImage(t)
	for _, e := range []struct {
		name   string
		eng    Engine
		adjust func(*Config)
		at     int64
	}{{"ref", EngineReference, nil, 137}, {"fast", EngineTranslated, longLatency, 145}, {"translated", EngineTranslated, nil, 137}} {
		e := e
		t.Run(e.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = e.eng
			if e.adjust != nil {
				e.adjust(&cfg)
			}
			wantStats, wantOut, wantMem := runUninterrupted(t, img, cfg)

			var out bytes.Buffer
			cfg.Output = &out
			m := New(img, cfg)
			done, err := m.RunSlice(e.at)
			if err != nil || done {
				t.Fatalf("run ended before the checkpoint (done=%v err=%v)", done, err)
			}
			blob, err := m.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			m2 := New(img, cfg)
			if err := m2.RestoreState(blob); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}
			if got := m2.Progress().Cycles; got != e.at {
				t.Errorf("restored machine at cycle %d, want %d", got, e.at)
			}
			stats, err := m2.Run()
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Errorf("stats mismatch:\nuninterrupted: %+v\nresumed:       %+v", wantStats, stats)
			}
			if out.String() != wantOut {
				t.Errorf("output %q, want %q", out.String(), wantOut)
			}
			if !bytes.Equal(m2.Mem(), wantMem) {
				t.Errorf("final memory images differ")
			}
		})
	}
}

// TestStateCrossEngineResume saves under the reference engine and
// resumes under the translated engine: the encoding is engine-independent,
// so the spliced run must match the uninterrupted reference run.
func TestStateCrossEngineResume(t *testing.T) {
	img := checkpointImage(t)
	refCfg := DefaultConfig()
	refCfg.Engine = EngineReference
	wantStats, wantOut, wantMem := runUninterrupted(t, img, refCfg)

	var out bytes.Buffer
	refCfg.Output = &out
	m := New(img, refCfg)
	if done, err := m.RunSlice(200); err != nil || done {
		t.Fatalf("run ended before the checkpoint (done=%v err=%v)", done, err)
	}
	blob, err := m.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	trCfg := DefaultConfig()
	trCfg.Output = &out
	m2 := New(img, trCfg)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	stats, err := m2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch:\nreference:        %+v\ncross-engine:     %+v", wantStats, stats)
	}
	if out.String() != wantOut {
		t.Errorf("output %q, want %q", out.String(), wantOut)
	}
	if !bytes.Equal(m2.Mem(), wantMem) {
		t.Errorf("final memory images differ")
	}
}

// TestStateCrossEngineChain splices one run across both engines in
// both directions — a slice under the translated engine, a slice under
// the reference, the rest under the translated engine — through
// checkpoints at each seam.  The encoding is engine-independent and
// both engines are bit-identical, so the spliced run must match the
// uninterrupted reference run exactly.
func TestStateCrossEngineChain(t *testing.T) {
	img := checkpointImage(t)
	refCfg := DefaultConfig()
	refCfg.Engine = EngineReference
	wantStats, wantOut, wantMem := runUninterrupted(t, img, refCfg)

	hop := func(blob []byte, eng Engine, out *bytes.Buffer, slice int64) ([]byte, *Machine) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Engine = eng
		cfg.Output = out
		m := New(img, cfg)
		if blob != nil {
			if err := m.RestoreState(blob); err != nil {
				t.Fatalf("RestoreState under engine %d: %v", eng, err)
			}
		}
		if slice >= 0 {
			if done, err := m.RunSlice(slice); err != nil || done {
				t.Fatalf("engine %d slice ended early (done=%v err=%v)", eng, done, err)
			}
			next, err := m.SaveState()
			if err != nil {
				t.Fatalf("SaveState under engine %d: %v", eng, err)
			}
			return next, m
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("final run under engine %d: %v", eng, err)
		}
		return nil, m
	}

	var out bytes.Buffer
	blob, _ := hop(nil, EngineTranslated, &out, 101)
	blob, _ = hop(blob, EngineReference, &out, 97)
	_, last := hop(blob, EngineTranslated, &out, -1)

	if stats := last.Stats(); !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats mismatch:\nreference: %+v\nspliced:   %+v", wantStats, stats)
	}
	if out.String() != wantOut {
		t.Errorf("output %q, want %q", out.String(), wantOut)
	}
	if !bytes.Equal(last.Mem(), wantMem) {
		t.Errorf("final memory images differ")
	}
}

// TestSaveStateRefusals: a traced run carries unreplayable recorder
// state, and a finished run has nothing left to resume.
func TestSaveStateRefusals(t *testing.T) {
	img := checkpointImage(t)

	cfg := DefaultConfig()
	cfg.TraceSink = telemetry.NewTrace()
	if _, err := New(img, cfg).SaveState(); err == nil || !strings.Contains(err.Error(), "traced") {
		t.Errorf("SaveState on traced machine: err = %v, want traced-run refusal", err)
	}

	m := New(img, DefaultConfig())
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := m.SaveState(); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Errorf("SaveState on finished machine: err = %v, want finished-run refusal", err)
	}
}

// TestRestoreStateHeaderMismatch: a checkpoint only restores into a
// machine with identical parameters, and the error names the field.
func TestRestoreStateHeaderMismatch(t *testing.T) {
	img := checkpointImage(t)
	m := New(img, DefaultConfig())
	if done, err := m.RunSlice(50); err != nil || done {
		t.Fatalf("run ended early (done=%v err=%v)", done, err)
	}
	blob, err := m.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	cfg := DefaultConfig()
	cfg.MemLatency += 3
	err = New(img, cfg).RestoreState(blob)
	if err == nil || !strings.Contains(err.Error(), "MemLatency") {
		t.Errorf("RestoreState into different machine: err = %v, want MemLatency mismatch", err)
	}
}

// TestRestoreStateCorrupt: truncation, a foreign blob, trailing
// garbage, and queue entries no run can produce are all rejected
// rather than half-applied.
func TestRestoreStateCorrupt(t *testing.T) {
	img := checkpointImage(t)
	m := New(img, DefaultConfig())
	if done, err := m.RunSlice(50); err != nil || done {
		t.Fatalf("run ended early (done=%v err=%v)", done, err)
	}
	blob, err := m.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	if err := New(img, DefaultConfig()).RestoreState(blob[:len(blob)/2]); err == nil {
		t.Error("RestoreState accepted a truncated checkpoint")
	}
	bad := append([]byte(nil), blob...)
	bad[8] ^= 0xff // first byte of the magic string
	if err := New(img, DefaultConfig()).RestoreState(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("RestoreState on foreign blob: err = %v, want bad-magic refusal", err)
	}
	if err := New(img, DefaultConfig()).RestoreState(append(append([]byte(nil), blob...), 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("RestoreState with trailing bytes: err = %v, want trailing-bytes refusal", err)
	}

	// A valid blob still restores after all those rejections touched
	// (copies of) it.
	if err := New(img, DefaultConfig()).RestoreState(blob); err != nil {
		t.Errorf("RestoreState on pristine blob after corruption tests: %v", err)
	}

	// Queue entries that no run can produce.  Each case edits a live
	// machine whose two unit queues both hold entries, then checkpoints
	// it; SaveState derives the register access lists from the edited
	// queues, so only the queue check itself can reject the blob.
	qimg := crossUnitImage(t)
	var haltIdx int
	for k, i := range qimg.Code {
		if i.Kind == rtl.KHalt {
			haltIdx = k
		}
	}
	for _, tc := range []struct {
		name, want string
		edit       func(m *Machine)
	}{
		{"ifu-instruction", "queue holds halt", func(m *Machine) {
			m.queues[rtl.Int].at(0).idx = haltIdx
		}},
		{"wrong-unit", "int queue holds", func(m *Machine) {
			m.queues[rtl.Int].at(0).idx = m.queues[rtl.Float].at(0).idx
		}},
		{"seq-not-ascending", "does not ascend", func(m *Machine) {
			q := &m.queues[rtl.Float]
			q.at(1).seq = q.at(0).seq
		}},
		{"seq-on-both-units", "queued on both units", func(m *Machine) {
			m.queues[rtl.Float].at(0).seq = m.queues[rtl.Int].at(0).seq
		}},
		{"seq-after-last-dispatch", "after the last dispatch", func(m *Machine) {
			q := &m.queues[rtl.Float]
			q.at(q.n - 1).seq = m.seq + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := crossUnitMachine(t, qimg)
			tc.edit(m)
			blob, err := m.SaveState()
			if err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			if err := New(qimg, DefaultConfig()).RestoreState(blob); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreState: err = %v, want %q", err, tc.want)
			}
		})
	}

	// Serialized register access lists that disagree with the queues:
	// flip the read/write flag of the first listed access.
	t.Run("access-lists", func(t *testing.T) {
		m := crossUnitMachine(t, qimg)
		blob, err := m.SaveState()
		if err != nil {
			t.Fatalf("SaveState: %v", err)
		}
		e := &stateEnc{}
		m.encodeRegs(e)
		off := bytes.Index(blob, e.buf)
		if off < 0 {
			t.Fatal("register section not found in the checkpoint")
		}
		for p := off; ; {
			cnt := binary.LittleEndian.Uint64(blob[p+16:])
			p += 24
			if cnt > 0 {
				blob[p+8] ^= 1 // the first access's write flag
				break
			}
		}
		if err := New(qimg, DefaultConfig()).RestoreState(blob); err == nil ||
			!strings.Contains(err.Error(), "disagree with the unit queues") {
			t.Errorf("RestoreState: err = %v, want access-list refusal", err)
		}
	})
}

// crossUnitImage builds a loop whose IEU instructions wait on FEU
// divides, so both unit queues fill with entries that hold registers
// in flight across units.
func crossUnitImage(t *testing.T) *Image {
	t.Helper()
	p, err := rtl.Parse(`
.entry main
.func main
r2 := 0
r3 := 1
f2 := 1.5f
f3 := 2.5f
L1:
f4 := (f2 / f3)
r4 := cvtr(f4)
f2 := (f4 + f3)
r2 := (r2 + r4)
f3 := (f3 + 1.0f)
r3 := (r3 + 1)
r31 := (r3 <= 200)
jumpTr L1
halt
.end
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return img
}

// crossUnitMachine runs the image to the first cycle boundary at which
// each unit queue holds at least two entries.
func crossUnitMachine(t *testing.T, img *Image) *Machine {
	t.Helper()
	m := New(img, DefaultConfig())
	for m.queues[rtl.Int].n < 2 || m.queues[rtl.Float].n < 2 {
		if done, err := m.RunSlice(1); done || err != nil {
			t.Fatalf("run ended before both queues filled (done=%v err=%v)", done, err)
		}
	}
	return m
}

// TestRestoreStateOnDiskCorruption round-trips a checkpoint through a
// file — the durable-store path — and damages it the ways disks do:
// structural bit-flips, truncation at every interesting boundary, a
// foreign file, an empty file.  Every case must be rejected cleanly
// (an error, never a panic or a half-applied machine), and a machine
// that saw a rejected blob must still run a clean pass to the same
// result as an undisturbed run.
func TestRestoreStateOnDiskCorruption(t *testing.T) {
	img := checkpointImage(t)
	wantStats, wantOut, wantMem := runUninterrupted(t, img, DefaultConfig())

	m := New(img, DefaultConfig())
	if done, err := m.RunSlice(137); err != nil || done {
		t.Fatalf("run ended early (done=%v err=%v)", done, err)
	}
	blob, err := m.SaveState()
	if err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}

	load := func(t *testing.T) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read checkpoint: %v", err)
		}
		return raw
	}

	// The undamaged on-disk copy restores and replays to the
	// uninterrupted result.
	raw := load(t)
	m2 := New(img, DefaultConfig())
	if err := m2.RestoreState(raw); err != nil {
		t.Fatalf("RestoreState from disk: %v", err)
	}

	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"bit-flip-header", func(b []byte) []byte { b[4] ^= 0x80; return b }},
		{"bit-flip-magic", func(b []byte) []byte { b[8] ^= 0x01; return b }},
		{"truncated-header", func(b []byte) []byte { return b[:6] }},
		{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-one-byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"foreign-magic", func(b []byte) []byte {
			return append([]byte("not a checkpoint at all"), b[8:]...)
		}},
		{"empty", func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.damage(load(t))
			fresh := New(img, DefaultConfig())
			if err := fresh.RestoreState(bad); err == nil {
				t.Fatal("RestoreState accepted a damaged on-disk checkpoint")
			}
			// The fallback path: the machine that rejected the blob is
			// untouched and still runs cleanly from cycle zero.
			var out bytes.Buffer
			cfg := DefaultConfig()
			cfg.Output = &out
			clean := New(img, cfg)
			stats, err := clean.Run()
			if err != nil {
				t.Fatalf("clean fallback run: %v", err)
			}
			if !reflect.DeepEqual(stats, wantStats) || out.String() != wantOut ||
				!bytes.Equal(clean.Mem(), wantMem) {
				t.Error("clean fallback run diverged from the uninterrupted result")
			}
		})
	}
}
