package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"wmstream/internal/sim"
)

// TestWriteJSON: the machine-readable report is valid JSON with one
// record per program×level, carrying the per-unit attribution, and two
// generations of it are byte-identical.
func TestWriteJSON(t *testing.T) {
	programs := []Program{Livermore5(64)}
	levels := []int{0, 3}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, programs, levels, sim.EngineTranslated); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var records []Record
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(records) != len(programs)*len(levels) {
		t.Fatalf("got %d records, want %d", len(records), len(programs)*len(levels))
	}
	for _, r := range records {
		if r.Program != "livermore5" || r.Cycles <= 0 {
			t.Errorf("bad record: %+v", r)
		}
		if r.Engine != "translated" {
			t.Errorf("%s -O%d: engine %q, want translated", r.Program, r.Level, r.Engine)
		}
		if len(r.Units) < 4 {
			t.Errorf("%s -O%d: %d units, want IFU+IEU+FEU+SCUs", r.Program, r.Level, len(r.Units))
		}
		for _, u := range r.Units {
			sum := u.Issued + u.Idle
			for _, n := range u.Stalls {
				sum += n
			}
			if sum != r.Cycles {
				t.Errorf("%s -O%d %s: attribution sums to %d, cycles %d", r.Program, r.Level, u.Unit, sum, r.Cycles)
			}
		}
	}
	// Streaming makes -O3 faster and gives it stream throughput.
	if records[1].Cycles >= records[0].Cycles {
		t.Errorf("-O3 (%d cycles) not faster than -O0 (%d)", records[1].Cycles, records[0].Cycles)
	}
	if records[1].StreamThroughput <= 0 {
		t.Errorf("-O3 stream throughput = %g, want > 0", records[1].StreamThroughput)
	}
	for _, r := range records {
		if r.HostNS <= 0 || r.SimCyclesPerSec <= 0 {
			t.Errorf("%s -O%d: host_ns=%d sim_cycles_per_sec=%g, want both > 0",
				r.Program, r.Level, r.HostNS, r.SimCyclesPerSec)
		}
	}

	// Everything except the host wall-clock fields is deterministic
	// across generations.
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, programs, levels, sim.EngineTranslated); err != nil {
		t.Fatalf("WriteJSON again: %v", err)
	}
	var records2 []Record
	if err := json.Unmarshal(buf2.Bytes(), &records2); err != nil {
		t.Fatalf("second report is not valid JSON: %v", err)
	}
	for i := range records {
		a, b := records[i], records2[i]
		a.HostNS, a.SimCyclesPerSec = 0, 0
		b.HostNS, b.SimCyclesPerSec = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("record %d differs across generations:\n%+v\n%+v", i, a, b)
		}
	}
}
