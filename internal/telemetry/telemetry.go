// Package telemetry is the observability layer shared by the compiler
// and the simulator: cycle-accurate stall attribution per functional
// unit, and a Chrome trace-event builder (trace.go) whose output one
// Perfetto timeline can show compile passes followed by simulated
// execution.
//
// The simulator charges every cycle of every unit to exactly one
// Cause: the unit either issued (did work), was idle (had nothing to
// do), or was stalled by a specific hazard.  The invariant — for every
// unit, the Cause counts sum to the run's total cycles — is what makes
// the attribution trustworthy: no cycle is double-counted or lost.
package telemetry

import (
	"fmt"
	"strings"
)

// Cause classifies what one functional unit did (or why it could not
// do anything) during one cycle.
type Cause uint8

const (
	// CauseIssued: the unit did work this cycle (issued, retired,
	// dispatched, or moved a stream element).
	CauseIssued Cause = iota
	// CauseIdle: the unit had nothing to do (empty queue, no active
	// stream, machine halted).
	CauseIdle
	// CauseFIFOEmpty: blocked reading an input FIFO with no ready data.
	CauseFIFOEmpty
	// CauseFIFOFull: blocked writing a data FIFO at capacity.
	CauseFIFOFull
	// CauseCCWait: blocked on a condition-code FIFO (empty for the
	// consumer, full for the producer).
	CauseCCWait
	// CauseMemPort: blocked because all memory ports were taken.
	CauseMemPort
	// CauseResultLatency: blocked on a register whose producing
	// instruction has not completed (in-flight access or pipeline
	// forwarding distance).
	CauseResultLatency
	// CauseStreamBusy: blocked on stream machinery — a scalar access
	// interleaving with an active stream, a stream start waiting for
	// queues to drain or a free stream control unit, or a stream read
	// waiting for a store to its element to reach memory.
	CauseStreamBusy
	// CauseQueueFull: the IFU could not dispatch into a full unit queue.
	CauseQueueFull
	// CauseFetch: the IFU owed fetch cycles for a multi-word instruction.
	CauseFetch

	// NumCauses is the number of attribution buckets.
	NumCauses = int(CauseFetch) + 1
)

var causeNames = [NumCauses]string{
	CauseIssued:        "issued",
	CauseIdle:          "idle",
	CauseFIFOEmpty:     "fifo-empty",
	CauseFIFOFull:      "fifo-full",
	CauseCCWait:        "cc-wait",
	CauseMemPort:       "mem-port",
	CauseResultLatency: "result-latency",
	CauseStreamBusy:    "stream-busy",
	CauseQueueFull:     "queue-full",
	CauseFetch:         "fetch",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Unit is one functional unit's cycle attribution for a run.
type Unit struct {
	Name   string
	Counts [NumCauses]int64
}

// Add charges one cycle to the cause.
func (u *Unit) Add(c Cause) { u.Counts[c]++ }

// Total is the number of cycles attributed (equals the run's cycle
// count by the accounting invariant).
func (u Unit) Total() int64 {
	var t int64
	for _, n := range u.Counts {
		t += n
	}
	return t
}

// Issued is the number of cycles the unit did work.
func (u Unit) Issued() int64 { return u.Counts[CauseIssued] }

// Stalled is the number of cycles the unit wanted to work but could
// not (everything except issued and idle).
func (u Unit) Stalled() int64 {
	return u.Total() - u.Counts[CauseIssued] - u.Counts[CauseIdle]
}

// Utilization is the issued fraction of all cycles, in percent.
func (u Unit) Utilization() float64 {
	t := u.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(u.Counts[CauseIssued]) / float64(t)
}

// FormatUnits renders the per-unit breakdown as an aligned table with a
// fixed column set, so the output is stable and goldenable:
//
//	unit    util%   issued     idle  fifo-empty ... fetch
//	IFU      41.2      412      583           5 ...     0
func FormatUnits(units []Unit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %6s %10s", "unit", "util%", "issued")
	for c := int(CauseIdle); c < NumCauses; c++ {
		fmt.Fprintf(&b, " %*s", columnWidth(Cause(c)), Cause(c))
	}
	b.WriteByte('\n')
	for _, u := range units {
		fmt.Fprintf(&b, "%-5s %6.1f %10d", u.Name, u.Utilization(), u.Counts[CauseIssued])
		for c := int(CauseIdle); c < NumCauses; c++ {
			fmt.Fprintf(&b, " %*d", columnWidth(Cause(c)), u.Counts[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// columnWidth keeps every numeric column at least 10 wide (cycle counts
// get large) without truncating long cause names.
func columnWidth(c Cause) int {
	if n := len(c.String()); n > 10 {
		return n
	}
	return 10
}
