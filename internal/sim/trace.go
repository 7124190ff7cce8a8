package sim

import (
	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// recorder streams the per-cycle accounting into a telemetry.Trace as
// Chrome trace events.  Each functional unit gets one span track:
// issued instructions become one-cycle spans named after the
// instruction, runs of consecutive stall cycles coalesce into one span
// named after the cause, and idle cycles emit nothing.  Occupancy
// gauges (FIFOs, CC queues, unit queues, write queue) become counter
// tracks, emitting a sample only when the value changes.
//
// Cycle N maps to trace timestamp base+N-1 (the machine's cycle
// counter starts at 1), where base is the trace cursor at attach time —
// after compile-phase spans, so one timeline shows the compiler
// followed by the machine.
type recorder struct {
	trace *telemetry.Trace
	base  int64

	units []recUnit
	last  []int64 // previously emitted counter values, -1 = none

	code  []*rtl.Instr
	names []string // span names by code index, formatted on first issue
}

type recUnit struct {
	tid      int
	runCause telemetry.Cause // open coalesced run; CauseIssued = none open
	runStart int64           // first cycle of the open run
}

// counterNames index-matches Machine.sampleCounters' sampling order.
var counterNames = []string{
	"fifo.in.r0", "fifo.in.r1", "fifo.in.f0", "fifo.in.f1",
	"fifo.out.r0", "fifo.out.r1", "fifo.out.f0", "fifo.out.f1",
	"cc.r", "cc.f",
	"queue.IEU", "queue.FEU",
	"mem.writeq",
}

func newRecorder(t *telemetry.Trace, units []telemetry.Unit, code []*rtl.Instr) *recorder {
	r := &recorder{
		trace: t,
		base:  t.Cursor(),
		units: make([]recUnit, len(units)),
		last:  make([]int64, len(counterNames)),
		code:  code,
		names: make([]string, len(code)),
	}
	t.ProcessName(telemetry.PidSim, "wm machine")
	for n, u := range units {
		r.units[n] = recUnit{tid: n + 1}
		t.ThreadName(telemetry.PidSim, n+1, u.Name)
	}
	for n := range r.last {
		r.last[n] = -1
	}
	return r
}

// name returns the span name of the instruction at code index idx.
func (r *recorder) name(idx int) string {
	if r.names[idx] == "" {
		r.names[idx] = r.code[idx].String()
	}
	return r.names[idx]
}

// record charges unit u's cycle `now` to the cause.  name, when
// non-empty, is the issued instruction (its span is emitted
// immediately); issued cycles without a name (IFU dispatch work, SCU
// element transfers) coalesce into "busy" runs like stalls do.
func (r *recorder) record(u int, cause telemetry.Cause, name string, now int64) {
	ru := &r.units[u]
	if name != "" {
		r.closeRun(ru, now)
		r.trace.Span(telemetry.PidSim, ru.tid, r.base+now-1, 1, name)
		return
	}
	if cause == ru.runCause && ru.runStart > 0 {
		return // run continues
	}
	r.closeRun(ru, now)
	ru.runCause = cause
	ru.runStart = now
}

// closeRun emits the open coalesced run, which ended before cycle now.
func (r *recorder) closeRun(ru *recUnit, now int64) {
	if ru.runStart == 0 || now <= ru.runStart {
		ru.runStart = 0
		return
	}
	if ru.runCause != telemetry.CauseIdle { // idle gaps stay blank
		name := ru.runCause.String()
		if ru.runCause == telemetry.CauseIssued {
			name = "busy"
		}
		r.trace.Span(telemetry.PidSim, ru.tid, r.base+ru.runStart-1, now-ru.runStart, name)
	}
	ru.runStart = 0
}

// counter emits gauge k's sample for cycle now when it changed.
func (r *recorder) counter(k int, v, now int64) {
	if r.last[k] == v {
		return
	}
	r.last[k] = v
	r.trace.Counter(telemetry.PidSim, r.base+now-1, counterNames[k], v)
}

// flush closes every open run; end is one past the last simulated
// cycle.
func (r *recorder) flush(end int64) {
	for n := range r.units {
		r.closeRun(&r.units[n], end)
	}
}
