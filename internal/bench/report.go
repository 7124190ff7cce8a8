package bench

import (
	"encoding/json"
	"io"

	"wmstream/internal/sim"
	"wmstream/internal/telemetry"
)

// Record is one benchmark run in the machine-readable report: the
// headline numbers plus the per-unit telemetry (utilization and stall
// attribution) the run collected.
type Record struct {
	Program string `json:"program"`
	Level   int    `json:"level"`
	// Engine names the simulation engine that produced the record
	// (translated or reference), so speed numbers from
	// different engines are never conflated in downstream diffs.
	Engine       string `json:"engine"`
	Cycles       int64  `json:"cycles"`
	Instructions int64  `json:"instructions"`
	MemReads     int64  `json:"mem_reads"`
	MemWrites    int64  `json:"mem_writes"`
	StreamElems  int64  `json:"stream_elems"`
	// StreamThroughput is stream elements moved per cycle — the
	// paper's headline metric approaches 1.0 for the streamed dot
	// product.
	StreamThroughput float64 `json:"stream_throughput"`
	// HostNS is the host wall-clock time of the simulation and
	// SimCyclesPerSec the resulting simulation speed — the simulator's
	// own performance, as opposed to the simulated machine's.
	HostNS          int64        `json:"host_ns"`
	SimCyclesPerSec float64      `json:"sim_cycles_per_sec"`
	Units           []UnitRecord `json:"units"`
}

// UnitRecord is one functional unit's attribution in a Record.
type UnitRecord struct {
	Unit           string           `json:"unit"`
	Issued         int64            `json:"issued"`
	Idle           int64            `json:"idle"`
	UtilizationPct float64          `json:"utilization_pct"`
	Stalls         map[string]int64 `json:"stalls,omitempty"`
}

// NewRecord builds a Record from a measured result.
func NewRecord(r Result) Record {
	rec := Record{
		Program:      r.Program,
		Level:        r.Level,
		Engine:       r.Engine.String(),
		Cycles:       r.Stats.Cycles,
		Instructions: r.Stats.Instructions,
		MemReads:     r.Stats.MemReads,
		MemWrites:    r.Stats.MemWrites,
		StreamElems:  r.Stats.StreamElems,
		HostNS:       r.HostNS,
	}
	if r.Stats.Cycles > 0 {
		rec.StreamThroughput = float64(r.Stats.StreamElems) / float64(r.Stats.Cycles)
	}
	if r.HostNS > 0 {
		rec.SimCyclesPerSec = float64(r.Stats.Cycles) / (float64(r.HostNS) / 1e9)
	}
	for _, u := range r.Stats.Units {
		ur := UnitRecord{
			Unit:           u.Name,
			Issued:         u.Issued(),
			Idle:           u.Counts[telemetry.CauseIdle],
			UtilizationPct: u.Utilization(),
		}
		for c := int(telemetry.CauseIdle) + 1; c < telemetry.NumCauses; c++ {
			if n := u.Counts[c]; n > 0 {
				if ur.Stalls == nil {
					ur.Stalls = map[string]int64{}
				}
				ur.Stalls[telemetry.Cause(c).String()] = n
			}
		}
		rec.Units = append(rec.Units, ur)
	}
	return rec
}

// WriteJSON measures every benchmark at each level on the given
// engine and writes the records as an indented JSON array
// (encoding/json sorts map keys, so everything except the host
// wall-clock fields is deterministic for identical runs).
func WriteJSON(w io.Writer, programs []Program, levels []int, engine sim.Engine) error {
	var records []Record
	for _, p := range programs {
		for _, lv := range levels {
			r, err := MeasureEngine(p, lv, engine)
			if err != nil {
				return err
			}
			records = append(records, NewRecord(r))
		}
	}
	return writeRecords(w, records)
}

func writeRecords(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
