package serve

import (
	"crypto/sha256"
	"fmt"
	"io"

	"wmstream"
	"wmstream/internal/cluster"
	"wmstream/internal/sim"
)

// Request is the JSON body accepted by POST /compile and POST /run.
// Level selects a canonical optimization level (default 3); Options,
// when present, overrides Level with explicit optimizer switches.
// Machine overrides individual simulated-machine parameters and is
// meaningful only for /run.
type Request struct {
	Source  string       `json:"source"`
	Level   *int         `json:"level,omitempty"`
	Options *Options     `json:"options,omitempty"`
	Machine *MachineSpec `json:"machine,omitempty"`
}

// Options mirrors wmstream.Options for the wire.
type Options struct {
	Standard            bool  `json:"standard"`
	Recurrence          bool  `json:"recurrence"`
	Stream              bool  `json:"stream"`
	StrengthReduce      bool  `json:"strength_reduce"`
	Combine             bool  `json:"combine"`
	MinTrip             int64 `json:"min_trip,omitempty"`
	MaxRecurrenceDegree int64 `json:"max_recurrence_degree,omitempty"`
}

// MachineSpec mirrors wmstream.Machine for the wire; zero fields keep
// the server's defaults.
type MachineSpec struct {
	MemLatency    int   `json:"mem_latency,omitempty"`
	MemPorts      int   `json:"mem_ports,omitempty"`
	FIFODepth     int   `json:"fifo_depth,omitempty"`
	QueueDepth    int   `json:"queue_depth,omitempty"`
	NumSCU        int   `json:"num_scu,omitempty"`
	WatchdogSlack int   `json:"watchdog_slack,omitempty"`
	MaxCycles     int64 `json:"max_cycles,omitempty"`
	// Engine selects the simulation engine: "", "auto" or "translated"
	// (the default) or "reference".  Both engines produce identical
	// results; the knob exists for validation and benchmarking.
	Engine string `json:"engine,omitempty"`
}

// JobRequest is the JSON body accepted by POST /jobs: a /run request
// plus scheduling metadata.  Tenant groups jobs for fair dispatch and
// per-tenant admission ("" is the anonymous tenant).
type JobRequest struct {
	Request
	Tenant string `json:"tenant,omitempty"`
}

// JobProgress is a point-in-time snapshot of a running job's
// simulation.
type JobProgress struct {
	Cycles         int64   `json:"cycles"`
	Instructions   int64   `json:"instructions"`
	MemReads       int64   `json:"mem_reads"`
	MemWrites      int64   `json:"mem_writes"`
	StreamElems    int64   `json:"stream_elems"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// JobResponse is the body of POST /jobs (202) and GET /jobs/{id}.
// Gen increments on every observable change (state transitions and
// progress updates); pollers pass it back as ?gen=N to long-poll for
// the next change.
type JobResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"` // queued | running | done | failed | canceled
	Gen    int64  `json:"gen"`
	Tenant string `json:"tenant,omitempty"`
	// Progress is present once the job has run at least one slice.
	Progress *JobProgress `json:"progress,omitempty"`
	// Result is present in state "done".
	Result *RunResponse `json:"result,omitempty"`
	// Error and Diagnostics are present in state "failed".
	Error       string       `json:"error,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	// ExpiresInSeconds is how long a terminal job remains pollable
	// before the TTL janitor deletes it.
	ExpiresInSeconds float64 `json:"expires_in_seconds,omitempty"`
	// Attempts counts executions of this job, including the current
	// one: >1 means the run was retried after a transient failure or
	// resumed after a restart.
	Attempts int `json:"attempts,omitempty"`
	// TraceID identifies the job's end-to-end trace (browsable at
	// GET /debug/traces/{trace_id}); stable across a crash-resume.
	TraceID string `json:"trace_id,omitempty"`
}

// Diagnostic is the wire form of wmstream.Diagnostic.
type Diagnostic struct {
	Severity string `json:"severity"`
	Stage    string `json:"stage,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Func     string `json:"func,omitempty"`
	Msg      string `json:"msg"`
}

// CompileResponse is the success body of POST /compile.  The listing
// carries "@line" debug annotations, so it round-trips through
// wmstream.Assemble with the source-level profiler intact.
type CompileResponse struct {
	Listing     string       `json:"listing"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// RunResponse is the success body of POST /run.
type RunResponse struct {
	Listing      string       `json:"listing"`
	Diagnostics  []Diagnostic `json:"diagnostics,omitempty"`
	Cycles       int64        `json:"cycles"`
	Instructions int64        `json:"instructions"`
	MemReads     int64        `json:"mem_reads"`
	MemWrites    int64        `json:"mem_writes"`
	StreamElems  int64        `json:"stream_elems"`
	Output       string       `json:"output"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error       string       `json:"error"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string      `json:"status"` // "ok" or "draining"
	Version       string      `json:"version"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	QueueDepth    int         `json:"queue_depth"`
	InFlight      int64       `json:"in_flight"`
	Cache         CacheStats  `json:"cache"`
	Jobs          *JobsHealth `json:"jobs,omitempty"`
	// Cluster reports this node's cluster view — membership, per-peer
	// up/down state, and the owned share of the key space — when the
	// server runs in cluster mode.
	Cluster *cluster.Health `json:"cluster,omitempty"`
}

// JobsHealth reports the durable job tier's state: which journal mode
// the store is in ("durable", "degraded" after an I/O failure,
// "crashed" under fault injection, or "memory" when no -job-dir is
// configured), and what the last boot recovered.
type JobsHealth struct {
	JournalMode   string       `json:"journal_mode"`
	JournalReason string       `json:"journal_reason,omitempty"`
	JournalBytes  int64        `json:"journal_bytes,omitempty"`
	DroppedWrites int64        `json:"dropped_writes,omitempty"`
	Recovery      RecoveryInfo `json:"recovery"`
}

// options resolves the request's optimizer configuration: explicit
// Options win; otherwise the level (default 3).
func (r *Request) options() wmstream.Options {
	if r.Options != nil {
		return wmstream.Options{
			Standard:            r.Options.Standard,
			Recurrence:          r.Options.Recurrence,
			Stream:              r.Options.Stream,
			StrengthReduce:      r.Options.StrengthReduce,
			Combine:             r.Options.Combine,
			MinTrip:             r.Options.MinTrip,
			MaxRecurrenceDegree: r.Options.MaxRecurrenceDegree,
		}
	}
	return wmstream.LevelOptions(r.level())
}

func (r *Request) level() int {
	if r.Level == nil {
		return 3
	}
	return *r.Level
}

// levelLabel names the request's optimization configuration for the
// per-O-level compile counters: "O0".."O3", or "custom" when explicit
// options are given.
func (r *Request) levelLabel() string {
	if r.Options != nil {
		return "custom"
	}
	return fmt.Sprintf("O%d", r.level())
}

// machine resolves the simulated machine configuration.
func (r *Request) machine() wmstream.Machine {
	m := wmstream.DefaultMachine()
	if s := r.Machine; s != nil {
		if s.MemLatency > 0 {
			m.MemLatency = s.MemLatency
		}
		if s.MemPorts > 0 {
			m.MemPorts = s.MemPorts
		}
		if s.FIFODepth > 0 {
			m.FIFODepth = s.FIFODepth
		}
		if s.QueueDepth > 0 {
			m.QueueDepth = s.QueueDepth
		}
		if s.NumSCU > 0 {
			m.NumSCU = s.NumSCU
		}
		if s.WatchdogSlack > 0 {
			m.WatchdogSlack = s.WatchdogSlack
		}
		if s.MaxCycles > 0 {
			m.MaxCycles = s.MaxCycles
		}
		m.Engine = s.Engine
	}
	// Every spelling of an engine resolves to its canonical name, so
	// they share one content address; an unknown name is kept for the
	// run to reject.
	if e, err := sim.ParseEngine(m.Engine); err == nil {
		m.Engine = e.String()
	}
	return m
}

// validate rejects requests the server will not attempt.
func (r *Request) validate(maxSource int64) error {
	if r.Source == "" {
		return fmt.Errorf("missing source")
	}
	if int64(len(r.Source)) > maxSource {
		return fmt.Errorf("source too large: %d bytes (limit %d)", len(r.Source), maxSource)
	}
	if r.Level != nil && (*r.Level < 0 || *r.Level > 3) {
		return fmt.Errorf("level must be 0..3, got %d", *r.Level)
	}
	if r.Machine != nil {
		if _, err := sim.ParseEngine(r.Machine.Engine); err != nil {
			return err
		}
	}
	return nil
}

// Key is a content address: the SHA-256 of everything that determines
// a response — the endpoint, the resolved optimizer options, the
// resolved machine configuration, and the source text.  Two requests
// with the same Key are guaranteed the same (byte-identical) success
// response, which is what makes the cache and the request coalescer
// sound.
type Key [sha256.Size]byte

func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// cacheKey computes the request's content address for one endpoint
// ("compile" or "run").  The resolved forms are hashed — a request
// saying `"level": 3` and one spelling out the equivalent options
// share an entry — and the encoding is versioned so a protocol change
// invalidates old entries rather than aliasing them.
func (r *Request) cacheKey(kind string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "wmserved/3\x00%s\x00opts=%+v\x00", kind, r.options())
	if kind == kindRun {
		fmt.Fprintf(h, "mach=%+v\x00", r.machine())
	}
	io.WriteString(h, r.Source)
	var k Key
	h.Sum(k[:0])
	return k
}

func toWireDiags(ds []wmstream.Diagnostic) []Diagnostic {
	if len(ds) == 0 {
		return nil
	}
	out := make([]Diagnostic, len(ds))
	for n, d := range ds {
		out[n] = Diagnostic{
			Severity: d.Severity.String(),
			Stage:    d.Stage,
			Line:     d.Line,
			Col:      d.Col,
			Pass:     d.Pass,
			Func:     d.Func,
			Msg:      d.Msg,
		}
	}
	return out
}
