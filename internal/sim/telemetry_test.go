package sim

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// scalarTelemetrySrc exercises the IFU, IEU and FEU plus a branch, so
// every non-SCU unit accrues a mix of causes.
const scalarTelemetrySrc = `
.entry main
.func main
r2 := 0
r3 := 50
f2 := 0.0f
L1:
f2 := (f2 + 1.5f)
r2 := (r2 + 1)
r31 := (r2 < r3)
jumpTr L1
halt
.end
`

// streamTelemetrySrc drives an SCU: sum 64 doubles from memory.
func streamTelemetrySrc() string {
	const n = 64
	a := make([]byte, n*8)
	for k := 0; k < n; k++ {
		binary.LittleEndian.PutUint64(a[k*8:], math.Float64bits(float64(k)))
	}
	return `
.entry main
.data a 512 align=8 init=` + hexOf(a) + `
.func main
r5 := 64
r6 := _a
f4 := f31
sin64f f0, r6, r5, 8
L1:
f4 := (f4 + f0)
jnd f0, L1
halt
.end
`
}

// TestAttributionSumsToCycles locks in the accounting invariant: every
// functional unit is charged exactly one cause per simulated cycle, so
// each unit's counts sum to the run's cycle total.
func TestAttributionSumsToCycles(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"scalar", scalarTelemetrySrc},
		{"stream", streamTelemetrySrc()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stats, _ := run(t, DefaultConfig(), tc.src)
			wantUnits := []string{"IFU", "IEU", "FEU", "SCU0", "SCU1", "SCU2", "SCU3"}
			if len(stats.Units) != len(wantUnits) {
				t.Fatalf("got %d units, want %d", len(stats.Units), len(wantUnits))
			}
			for n, u := range stats.Units {
				if u.Name != wantUnits[n] {
					t.Errorf("unit %d = %q, want %q", n, u.Name, wantUnits[n])
				}
				if got := u.Total(); got != stats.Cycles {
					t.Errorf("%s: attributed %d cycles, run took %d\n%s",
						u.Name, got, stats.Cycles, telemetry.FormatUnits(stats.Units))
				}
			}
			// The programs do real work, so the issue counts cannot be
			// degenerate.
			if stats.Units[0].Issued() == 0 || stats.Units[1].Issued() == 0 {
				t.Errorf("IFU/IEU issued nothing:\n%s", telemetry.FormatUnits(stats.Units))
			}
		})
	}
}

// TestTraceSchema checks the shape of the Chrome trace on each engine:
// valid JSON, a named process, one named track per unit, well-formed
// spans, and counter samples restricted to the documented counter set.
func TestTraceSchema(t *testing.T) {
	for _, eng := range []Engine{EngineTranslated, EngineReference} {
		t.Run(eng.String(), func(t *testing.T) { checkTraceSchema(t, eng) })
	}
}

func checkTraceSchema(t *testing.T, eng Engine) {
	cfg := DefaultConfig()
	cfg.Engine = eng
	cfg.TraceSink = telemetry.NewTrace()
	_, stats, _ := run(t, cfg, streamTelemetrySrc())

	var b strings.Builder
	if _, err := cfg.TraceSink.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Name string `json:"name"`
			Args struct {
				Name  string `json:"name"`
				Value *int64 `json:"value"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	knownCounter := map[string]bool{}
	for _, n := range counterNames {
		knownCounter[n] = true
	}
	tracks := map[string]bool{}
	spans, counters := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" && e.Pid == telemetry.PidSim {
				tracks[e.Args.Name] = true
			}
		case "X":
			spans++
			if e.Pid != telemetry.PidSim {
				t.Errorf("span %q on pid %d, want %d", e.Name, e.Pid, telemetry.PidSim)
			}
			if e.Dur < 1 || e.Ts < 0 || e.Ts+e.Dur > stats.Cycles+1 {
				t.Errorf("span %q out of range: ts=%d dur=%d cycles=%d", e.Name, e.Ts, e.Dur, stats.Cycles)
			}
		case "C":
			counters++
			if !knownCounter[e.Name] {
				t.Errorf("unknown counter %q", e.Name)
			}
			if e.Args.Value == nil {
				t.Errorf("counter %q sample has no value", e.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	for _, want := range []string{"IFU", "IEU", "FEU", "SCU0"} {
		if !tracks[want] {
			t.Errorf("no track named %q (have %v)", want, tracks)
		}
	}
	if spans == 0 || counters == 0 {
		t.Errorf("trace has %d spans and %d counter samples, want both > 0", spans, counters)
	}
}

// TestTraceDeterminism: the same program run twice on each engine
// produces one byte-identical trace file — the property that makes
// traces diffable.
func TestTraceDeterminism(t *testing.T) {
	render := func(eng Engine) string {
		cfg := DefaultConfig()
		cfg.Engine = eng
		cfg.TraceSink = telemetry.NewTrace()
		run(t, cfg, streamTelemetrySrc())
		return traceText(t, cfg.TraceSink)
	}
	want := render(EngineReference)
	for _, eng := range []Engine{EngineReference, EngineTranslated, EngineTranslated} {
		if got := render(eng); got != want {
			t.Errorf("%s run produced a different trace (%d vs %d bytes)", eng, len(got), len(want))
		}
	}
}

// TestProfileRetires: profiling counts issue events per code index only
// when enabled.
func TestProfileRetires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	m, stats, _ := run(t, cfg, scalarTelemetrySrc)
	var total int64
	for _, n := range m.Retired() {
		total += n
	}
	if total == 0 {
		t.Fatal("profiling enabled but no retirements recorded")
	}
	if total < stats.Instructions {
		t.Errorf("retired %d < %d instructions executed", total, stats.Instructions)
	}

	m2, _, _ := run(t, DefaultConfig(), scalarTelemetrySrc)
	if m2.Retired() != nil {
		t.Error("profiling disabled but Retired() is non-nil")
	}
}

// TestInheritLines: instructions without a source line inherit the
// nearest preceding annotated line; leading gaps backfill from the
// first annotation.
func TestInheritLines(t *testing.T) {
	lines := []int{0, 0, 3, 0, 5, 0}
	inheritLines(lines)
	want := []int{3, 3, 3, 3, 5, 5}
	for n := range want {
		if lines[n] != want[n] {
			t.Fatalf("inheritLines = %v, want %v", lines, want)
		}
	}
	empty := []int{0, 0}
	inheritLines(empty)
	if empty[0] != 0 || empty[1] != 0 {
		t.Errorf("inheritLines on unannotated code = %v, want zeros", empty)
	}
}

// TestImageLineTable: the linker carries @line annotations into the
// image, aligned with the code array.
func TestImageLineTable(t *testing.T) {
	p, err := rtl.Parse(`
.entry main
.func main
r2 := 1 @4
r3 := (r2 + 1)
halt @9
.end
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if len(img.Line) != len(img.Code) {
		t.Fatalf("line table has %d entries for %d instructions", len(img.Line), len(img.Code))
	}
	// r2:=1 at line 4; the unannotated add inherits 4; halt at 9.
	want := []int{4, 4, 9}
	for n, w := range want {
		if img.Line[n] != w {
			t.Errorf("img.Line[%d] = %d, want %d (table %v)", n, img.Line[n], w, img.Line[:len(want)])
		}
	}
}
