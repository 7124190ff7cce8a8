package bench

import (
	"bytes"
	"reflect"
	"testing"

	"wmstream/internal/sim"
	"wmstream/internal/telemetry"
)

// FuzzEngines compiles arbitrary Mini-C at every optimization level and
// runs whatever compiles through both simulation engines with a tight
// cycle budget, traced and profiled, cross-checking every observable:
// statistics (including per-unit telemetry), program output, error
// text, trace bytes and retirement counts.  Any divergence is a
// translated-engine soundness bug — its compiled closures, idle skips
// and SCU batches must all be invisible.
func FuzzEngines(f *testing.F) {
	for _, p := range append(Programs(), Livermore5(32)) {
		f.Add(p.Source)
	}
	f.Add("int main(void) { int i; for (i = 0; i < 100; i++) ; return 0; }")
	f.Add("double a[64];\nint main(void) { int i; double s; for (i = 0; i < 64; i++) a[i] = i * 0.5; s = 0.0; for (i = 0; i < 64; i++) s = s + a[i]; putd(s); return 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		for lvl := 0; lvl <= 3; lvl++ {
			p, err := Compile(Program{Name: "fuzz", Source: src}, lvl)
			if err != nil {
				continue
			}
			img, err := sim.Link(p)
			if err != nil {
				continue
			}
			exec := func(eng sim.Engine) (sim.Stats, string, string, string, []int64) {
				cfg := sim.DefaultConfig()
				cfg.MaxCycles = 50_000
				cfg.WatchdogSlack = 200
				cfg.Engine = eng
				cfg.TraceSink = telemetry.NewTrace()
				cfg.Profile = true
				var out, trace bytes.Buffer
				cfg.Output = &out
				m := sim.New(img, cfg)
				stats, rerr := m.Run()
				es := ""
				if rerr != nil {
					es = rerr.Error()
				}
				if _, err := cfg.TraceSink.WriteTo(&trace); err != nil {
					t.Fatalf("writing trace: %v", err)
				}
				return stats, out.String(), es, trace.String(), m.Retired()
			}
			refStats, refOut, refErr, refTrace, refRetired := exec(sim.EngineReference)
			gotStats, gotOut, gotErr, gotTrace, gotRetired := exec(sim.EngineTranslated)
			if refErr != gotErr {
				t.Fatalf("O%d: engines disagree on error:\nreference:  %s\ntranslated: %s",
					lvl, refErr, gotErr)
			}
			if !reflect.DeepEqual(refStats, gotStats) {
				t.Fatalf("O%d: engines disagree on stats:\nreference:  %+v\ntranslated: %+v",
					lvl, refStats, gotStats)
			}
			if refOut != gotOut {
				t.Fatalf("O%d: engines disagree on output: %q vs %q", lvl, refOut, gotOut)
			}
			if refTrace != gotTrace {
				t.Fatalf("O%d: engines disagree on the trace (%d vs %d bytes)", lvl, len(refTrace), len(gotTrace))
			}
			if !reflect.DeepEqual(refRetired, gotRetired) {
				t.Fatalf("O%d: engines disagree on retirement counts", lvl)
			}
		}
	})
}
