package sim

import (
	"fmt"
	"math"

	"wmstream/internal/rtl"
	"wmstream/internal/telemetry"
)

// Telemetry unit indices: the IFU, the two execution units, then one
// slot per stream control unit.  Every unit is charged exactly one
// telemetry.Cause per simulated cycle.
const (
	unitIFU = iota
	unitIEU
	unitFEU
	unitSCU0
)

// dispatched is an instruction sitting in an execution unit's queue:
// its code index (which names the instruction, its decode entry and its
// translated issue function), its dispatch sequence number, and the
// registers it holds in flight — wmask those it writes, amask those it
// reads or writes.  The two queues are the machine's only record of
// in-flight register accesses; every register hazard is derived from
// them (queuedBefore).  The entry holds no pointers, so filling a queue
// slot needs no GC write barrier.
type dispatched struct {
	idx          int
	seq          int64
	wmask, amask uint64
}

// fifoEntry is one datum in (or on its way to) an input FIFO.
type fifoEntry struct {
	val    uint64
	ready  int64
	served bool
	addr   int64
	size   int
	seq    int64 // memory program order; 0 for stream prefetches
}

// ccEntry is one condition code.
type ccEntry struct {
	val   bool
	ready int64
}

// storeReq is a store whose address is known but whose datum has not
// yet been matched with an output-FIFO entry.
type storeReq struct {
	addr int64
	size int
	seq  int64
}

// writeReq is a fully formed memory write awaiting a memory port.
type writeReq struct {
	addr int64
	size int
	val  uint64
	seq  int64
}

// scu is one stream control unit.
type scu struct {
	active    bool
	input     bool
	class     rtl.Class
	fifoN     int
	base      int64
	stride    int64
	size      int
	remaining int64
}

// Machine is a WM processor instance.
type Machine struct {
	cfg Config
	img *Image
	dec []decoded // per-instruction decode cache, index-matched with img.Code
	mem []byte

	now     int64
	pc      int
	halted  bool
	ifuWait int // extra fetch cycles owed for multi-word instructions

	regs    [2][rtl.NumArchRegs]uint64
	readyAt [2][rtl.NumArchRegs]int64
	seq     int64 // sequence number of the last dispatch

	queues  [2]ring[dispatched]
	inFIFO  [2][2]ring[fifoEntry]
	outFIFO [2][2]ring[uint64]
	ccFIFO  [2]ring[ccEntry]

	// streamIter tracks the per-FIFO iteration counter that the
	// jump-on-stream-not-exhausted instruction consumes; -1 denotes an
	// infinite stream.
	streamIter [2][2]int64

	scus []*scu
	// activeSCUs counts SCUs with active=true so per-cycle checks that
	// scan for streams can skip the scan entirely in scalar code.
	activeSCUs int
	// outStreams counts active output streams per (class, fifo) so the
	// per-cycle store matcher avoids rescanning every SCU.
	outStreams [2][2]int

	unmatchedStores [2][2]ring[storeReq]
	writeQueue      ring[writeReq]
	portsLeft       int
	memSeq          int64 // orders scalar memory operations (IEU program order)
	unserved        int   // scalar load requests awaiting memory service

	lastProgress int64
	lastRetired  int    // code index of the last instruction retired by a unit (-1 = none)
	lastUnit     string // the unit that retired it
	stats        Stats
	err          error

	// Terminal run state: finished latches once the run completes,
	// faults, or is canceled inside an engine; termErr is the error the
	// terminal RunSlice returned, replayed by later calls.  flushed
	// guards the one-shot trace flush.
	finished bool
	termErr  error
	flushed  bool

	// Per-cycle progress classification for the translated engine:
	// progress() sets otherProgress, progressSCU (stream transfers only)
	// sets scuProgress.  A cycle with neither is a candidate for idle
	// skipping; a cycle with only SCU progress for transfer batching.
	scuProgress   bool
	otherProgress bool
	// cycleCause records the cause each unit was charged this cycle, so
	// a stalled stretch can be bulk-charged to the same buckets.
	cycleCause []telemetry.Cause

	// evalStack is the scratch operand stack for evalProg, reused
	// across evaluations so the hot path never allocates.
	evalStack []uint64

	// unitCounts is the per-unit cycle attribution (always on: the
	// counters are flat array increments, allocated once here).
	unitCounts []telemetry.Unit
	// rec streams events into cfg.TraceSink; nil when tracing is off,
	// so the hot path pays one nil check.
	rec *recorder
	// retired counts issue events per code index for the source-level
	// profiler; nil unless cfg.Profile.
	retired []int64

	// nextEv caches a conservative lower bound on the earliest stored
	// ready time strictly after now: 0 = unknown (scan), unboundedCycles
	// = known none.  Every write of a future ready time goes through
	// noteEvent, so a cached value > now can never exceed the true next
	// event — stale (already consumed) entries only make it smaller,
	// which is safe (a short idle skip just re-observes the same cycle).
	nextEv int64
	// readyMask over-approximates, per class, the registers whose
	// readyAt may lie in the future; scanNextEvent visits only set bits
	// and clears the stale ones.  Bits are set where readyAt is written
	// and may go stale as time passes — never the reverse.
	readyMask [2]uint32

	// tr is the lazily attached translation (EngineTranslated); shared
	// across machines via the process-wide cache.
	tr *translation

	// The translated engine defers per-cycle Idle charges — of fully
	// idle SCUs, and of each execution unit with an empty queue — into
	// counters, flushed into unitCounts wherever the counts become
	// observable (Stats, SaveState, a cycle where the unit works).  The
	// cause flags record that cycleCause already says Idle for the
	// covered slots, so the fast paths touch neither array.
	scuIdleDeferred  int64
	unitIdleDeferred [2]int64
	scuCauseIdle     bool
	unitCauseIdle    [2]bool

	// pooled marks a machine handed out by Acquire; Release refuses
	// machines built directly by New.  inPool is set while the machine
	// sits in its pool, so a second Release of one acquire is a no-op
	// instead of a second entry that two later acquires would share.
	pooled bool
	inPool bool
}

// normalizeConfig resolves the configuration New actually builds with:
// when the image's global data would collide with the configured stack,
// the stack is relocated above the data and memory grows to fit.  The
// machine pool keys on the normalized memory size, the size New
// actually allocates.
func normalizeConfig(img *Image, cfg Config) Config {
	if img.DataEnd+65536 > cfg.StackTop {
		cfg.StackTop = ((img.DataEnd + 65536 + 4095) &^ 4095) + 1<<20
	}
	if int64(cfg.MemSize) < cfg.StackTop+4096 {
		cfg.MemSize = int(cfg.StackTop + 4096)
	}
	return cfg
}

// New builds a machine for the linked image.  When the image's global
// data would collide with the configured stack, the stack is relocated
// above the data and memory grows to fit.
func New(img *Image, cfg Config) *Machine {
	cfg = normalizeConfig(img, cfg)
	m := &Machine{cfg: cfg, img: img, lastRetired: -1}
	m.bind()
	m.mem = make([]byte, cfg.MemSize)
	for _, c := range img.Init {
		copy(m.mem[c.addr:], c.data)
	}
	m.regs[rtl.Int][rtl.SP] = uint64(cfg.StackTop)
	m.pc = img.Entry
	m.scus = make([]*scu, cfg.NumSCU)
	for n := range m.scus {
		m.scus[n] = &scu{}
	}
	for c := 0; c < 2; c++ {
		m.queues[c].reserve(cfg.QueueDepth)
		m.ccFIFO[c].reserve(cfg.CCDepth)
		for n := 0; n < 2; n++ {
			m.inFIFO[c][n].reserve(cfg.FIFODepth)
			m.outFIFO[c][n].reserve(cfg.FIFODepth)
		}
	}
	m.unitCounts = make([]telemetry.Unit, unitSCU0+cfg.NumSCU)
	m.unitCounts[unitIFU].Name = "IFU"
	m.unitCounts[unitIEU].Name = "IEU"
	m.unitCounts[unitFEU].Name = "FEU"
	for n := 0; n < cfg.NumSCU; n++ {
		m.unitCounts[unitSCU0+n].Name = fmt.Sprintf("SCU%d", n)
	}
	m.cycleCause = make([]telemetry.Cause, len(m.unitCounts))
	m.evalStack = make([]uint64, 0, 16)
	m.attach()
	return m
}

// attach sets up the observers the configuration asks for, or clears
// them: a trace recorder on Config.TraceSink and the profiler's
// per-instruction retirement counts.  New and the pool's rearm share it.
func (m *Machine) attach() {
	m.rec, m.retired = nil, nil
	if m.cfg.TraceSink != nil {
		m.rec = newRecorder(m.cfg.TraceSink, m.unitCounts, m.img.Code)
	}
	if m.cfg.Profile {
		m.retired = make([]int64, len(m.img.Code))
	}
}

// bind attaches the decode tables for the machine's image and
// configuration.  The reference engine decodes the image; the
// translated engine (the default) attaches its translation and shares
// its decode cache — for a cached image, binding skips decoding
// entirely.
func (m *Machine) bind() {
	if m.cfg.Engine == EngineReference {
		m.tr = nil
		m.dec = decodeImage(m.img, m.cfg)
	} else {
		m.tr = translationFor(m.img, m.cfg)
		m.dec = m.tr.dec
	}
}

// account charges one cycle of unit u to the cause.  idx is the code
// index of an execution unit's head instruction (-1 elsewhere); the
// recorder names an issued cycle's span after it.
func (m *Machine) account(u int, c telemetry.Cause, idx int) {
	m.unitCounts[u].Add(c)
	m.cycleCause[u] = c
	if m.rec != nil {
		m.record(u, c, idx)
	}
}

// record hands unit u's cycle to the trace recorder (see account).
func (m *Machine) record(u int, c telemetry.Cause, idx int) {
	var name string
	if idx >= 0 && c == telemetry.CauseIssued {
		name = m.rec.name(idx)
	}
	m.rec.record(u, c, name, m.now)
}

// profTick credits one retirement to the instruction at code index idx
// for the source-line profiler.
func (m *Machine) profTick(idx int) {
	if m.retired != nil && idx >= 0 && idx < len(m.retired) {
		m.retired[idx]++
	}
}

// Retired returns the per-instruction retirement counts collected when
// Config.Profile is set (nil otherwise).  Index = code address; combine
// with Image.Line for source-level attribution.
func (m *Machine) Retired() []int64 { return m.retired }

// Run simulates to completion and returns the statistics.  A machine
// fault returns a *TrapError; a watchdog expiry (no forward progress
// for MemLatency+WatchdogSlack cycles) returns a *DeadlockError.  Both
// carry a Snapshot of the stuck machine.
func (m *Machine) Run() (Stats, error) {
	_, err := m.RunSlice(unboundedCycles)
	return m.Stats(), err
}

// RunSlice advances the simulation by at most budget cycles and
// reports whether the program has run to completion.  A run chopped
// into arbitrary slices is bit-identical — statistics, output, memory
// image, telemetry attribution, and faults — to an uninterrupted run:
// the slice boundary only decides where the engine loop pauses, never
// what a cycle does.  Once the run is terminal (completed, faulted,
// deadlocked, or canceled via Config.Ctx) further calls return
// (true, the terminal error) without simulating.
func (m *Machine) RunSlice(budget int64) (bool, error) {
	if m.finished {
		return true, m.termErr
	}
	if budget <= 0 {
		return false, nil
	}
	limit := m.now + budget
	if limit < m.now { // overflow: treat as unbounded
		limit = unboundedCycles
	}
	var (
		done bool
		err  error
	)
	if m.cfg.Engine == EngineReference {
		done, err = m.runRef(limit)
	} else {
		done, err = m.runTranslated(limit)
	}
	if done || err != nil {
		m.finished = true
		m.termErr = err
		// Even a failed run flushes the trace: the timeline up to a
		// deadlock is exactly the forensic record wanted.
		m.flushTrace()
	}
	return m.finished, err
}

// Stats returns the statistics accumulated so far, with the per-unit
// attribution copied out.  Stats.Cycles is set only once the program
// has run to completion (matching Run's historical contract: error
// paths leave it zero).
func (m *Machine) Stats() Stats {
	m.flushSCUIdle()
	st := m.stats
	st.Units = append([]telemetry.Unit(nil), m.unitCounts...)
	return st
}

// flushSCUIdle applies the translated engine's deferred Idle charges
// (no-op elsewhere).
func (m *Machine) flushSCUIdle() {
	if k := m.scuIdleDeferred; k != 0 {
		m.scuIdleDeferred = 0
		for u := unitSCU0; u < len(m.unitCounts); u++ {
			m.unitCounts[u].Counts[telemetry.CauseIdle] += k
		}
	}
	for c := 0; c < 2; c++ {
		if k := m.unitIdleDeferred[c]; k != 0 {
			m.unitIdleDeferred[c] = 0
			m.unitCounts[unitIEU+c].Counts[telemetry.CauseIdle] += k
		}
	}
}

// Progress returns the headline counters of the run so far without
// copying the per-unit attribution; Cycles is the live clock.  Cheap
// enough to call after every slice.
func (m *Machine) Progress() Stats {
	st := m.stats
	st.Cycles = m.now
	return st
}

// Finish flushes the trace recorder for a run abandoned between
// slices (wall-clock budget, external cancellation).  Runs that reach
// a terminal state inside RunSlice flush automatically; Finish is
// idempotent either way.
func (m *Machine) Finish() { m.flushTrace() }

func (m *Machine) flushTrace() {
	if m.rec != nil && !m.flushed {
		m.flushed = true
		m.rec.flush(m.now + 1)
	}
}

// cancelCheckInterval is how many simulated cycles the reference
// engine runs between polls of Config.Ctx.  A power of two so the
// check is a mask; small enough that a canceled request stops within
// microseconds of host time.
const cancelCheckInterval = 8192

// cancelDone returns the context's Done channel (nil when no context
// is attached, so the select below never fires).
func (m *Machine) cancelDone() <-chan struct{} {
	if m.cfg.Ctx == nil {
		return nil
	}
	return m.cfg.Ctx.Done()
}

// runRef is the reference engine: one full machine evaluation per
// simulated cycle, up to the absolute cycle limit.  It is the
// semantic definition the translated engine is differentially tested
// against.  Returns done=true only on clean completion; a false/nil
// return means the slice limit was reached with the run still live.
func (m *Machine) runRef(limit int64) (bool, error) {
	slack := m.watchdogSlack()
	rec := m.rec != nil
	done := m.cancelDone()
	for !m.done() {
		if m.now >= limit {
			return false, nil
		}
		m.now++
		if m.now > m.cfg.MaxCycles {
			return false, m.maxCyclesTrap()
		}
		if done != nil && m.now&(cancelCheckInterval-1) == 0 {
			select {
			case <-done:
				return false, m.cfg.Ctx.Err()
			default:
			}
		}
		m.step()
		if rec {
			m.sampleCounters()
		}
		if m.err != nil {
			return false, m.err
		}
		if m.now-m.lastProgress > int64(m.cfg.MemLatency)+slack {
			return false, &DeadlockError{Snapshot: m.snapshot()}
		}
	}
	m.stats.Cycles = m.now
	return true, nil
}

// step evaluates one machine cycle (everything but the cycle counter,
// the watchdog, and trace sampling — those belong to the engine loop).
func (m *Machine) step() {
	m.portsLeft = m.cfg.MemPorts
	m.matchStores()
	m.stepSCUs()
	m.serveMemory()
	m.stepUnit(rtl.Int)
	m.stepUnit(rtl.Float)
	m.stepIFU()
}

func (m *Machine) watchdogSlack() int64 {
	slack := int64(m.cfg.WatchdogSlack)
	if slack <= 0 {
		slack = int64(DefaultConfig().WatchdogSlack)
	}
	return slack
}

// maxCyclesTrap builds the runaway-simulation trap.  Kept out of the
// engine loops so their hot paths never touch fmt.
func (m *Machine) maxCyclesTrap() error {
	return &TrapError{
		Reason:   fmt.Sprintf("exceeded %d cycles", m.cfg.MaxCycles),
		Snapshot: m.snapshot(),
	}
}

// sampleCounters feeds the occupancy gauges (FIFOs, CC queues, unit
// queues, memory write queue) to the trace recorder once per cycle, in
// counterNames order.
func (m *Machine) sampleCounters() {
	r, now := m.rec, m.now
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			r.counter(2*c+n, int64(m.inFIFO[c][n].n), now)
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			r.counter(4+2*c+n, int64(m.outFIFO[c][n].n), now)
		}
	}
	r.counter(8, int64(m.ccFIFO[0].n), now)
	r.counter(9, int64(m.ccFIFO[1].n), now)
	r.counter(10, int64(m.queues[0].n), now)
	r.counter(11, int64(m.queues[1].n), now)
	r.counter(12, int64(m.writeQueue.n), now)
}

// Mem returns the memory image (for tests to inspect results).
func (m *Machine) Mem() []byte { return m.mem }

// GlobalAddr returns the address of a global, or -1.
func (m *Machine) GlobalAddr(name string) int64 {
	if a, ok := m.img.Globals[name]; ok {
		return a
	}
	return -1
}

// Reg returns the raw bits of a register (for tests).
func (m *Machine) Reg(r rtl.Reg) uint64 { return m.regs[r.Class][r.N] }

func (m *Machine) done() bool {
	if !m.halted {
		return false
	}
	if m.queues[0].n > 0 || m.queues[1].n > 0 || m.writeQueue.n > 0 {
		return false
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			if m.unmatchedStores[c][n].n > 0 {
				return false
			}
		}
	}
	for _, s := range m.scus {
		if s.active && (!s.input || s.remaining > 0) {
			// An unconsumed input stream may be abandoned; an output
			// stream must finish its writes.
			if !s.input {
				return false
			}
		}
	}
	return true
}

func (m *Machine) progress() {
	m.lastProgress = m.now
	m.otherProgress = true
}

// progressSCU marks forward progress made by a stream transfer.  The
// translated engine batches cycles whose only progress is of this kind.
func (m *Machine) progressSCU() {
	m.lastProgress = m.now
	m.scuProgress = true
}

// fail records a machine fault as a *TrapError (first fault wins).
func (m *Machine) fail(format string, args ...interface{}) {
	if m.err == nil {
		m.err = &TrapError{Reason: fmt.Sprintf(format, args...), Snapshot: m.snapshot()}
	}
}

// --- store matching and memory service ----------------------------------

func (m *Machine) matchStores() {
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			// Output FIFOs feeding an active output stream belong to the
			// SCU, not to the store matcher.
			if m.outputStreamActive(rtl.Class(c), n) {
				continue
			}
			us := &m.unmatchedStores[c][n]
			of := &m.outFIFO[c][n]
			for us.n > 0 && of.n > 0 {
				st := us.pop()
				val := of.pop()
				m.writeQueue.push(writeReq{st.addr, st.size, val, st.seq})
				m.progress()
			}
		}
	}
}

func (m *Machine) outputStreamActive(c rtl.Class, n int) bool {
	return m.outStreams[c][n] > 0
}

// deactivate retires an SCU, keeping the output-stream census in sync.
// Every s.active=false in the machine goes through here.
func (m *Machine) deactivate(s *scu) {
	if s.active {
		m.activeSCUs--
		if !s.input {
			m.outStreams[s.class][s.fifoN]--
		}
	}
	s.active = false
}

func (m *Machine) stepSCUs() {
	for k, s := range m.scus {
		u := unitSCU0 + k
		if !s.active || s.remaining == 0 {
			m.account(u, telemetry.CauseIdle, -1)
			continue
		}
		if m.portsLeft == 0 {
			m.account(u, telemetry.CauseMemPort, -1)
			continue
		}
		if s.input {
			q := &m.inFIFO[s.class][s.fifoN]
			if q.n >= m.cfg.FIFODepth {
				m.account(u, telemetry.CauseFIFOFull, -1)
				continue
			}
			// A stream read waits while a scalar store to its element
			// is still on its way to memory, such as one issued just
			// before the stream started: the activation hold drains
			// the unit queues, but not the store matcher or the write
			// queue.  It waits likewise while an active output stream
			// still covers the element, its datum queued in the output
			// FIFO, as when a stream restarts after an inner loop's
			// stream-out.  It never waits for a store the loop has yet
			// to issue; such a store to an element the stream fetches
			// first is the hazard that forbids streaming loops with
			// unresolved memory recurrences (paper step 2a).  An
			// infinite stream may also prefetch past mapped memory
			// before the loop exits and stops it; such reads deliver
			// zero rather than faulting (the hardware would fault
			// lazily, on consumption).
			if m.storeConflict(s.base, s.size, -1) || m.outputStreamConflict(s.base, s.size) {
				m.account(u, telemetry.CauseStreamBusy, -1)
				continue
			}
			var val uint64
			if s.base >= 0 && s.base+int64(s.size) <= int64(len(m.mem)) {
				v, ok := m.readMem(s.base, s.size, s.class)
				if !ok {
					return
				}
				val = v
			}
			ready := m.now + int64(m.cfg.MemLatency)
			q.push(fifoEntry{
				val: val, ready: ready, served: true,
				addr: s.base, size: s.size,
			})
			m.noteEvent(ready)
			m.stats.MemReads++
		} else {
			q := &m.outFIFO[s.class][s.fifoN]
			if q.n == 0 {
				m.account(u, telemetry.CauseFIFOEmpty, -1)
				continue
			}
			val := q.pop()
			if !m.writeMem(s.base, s.size, val) {
				return
			}
			m.stats.MemWrites++
		}
		m.account(u, telemetry.CauseIssued, -1)
		m.portsLeft--
		s.base += s.stride
		if s.remaining > 0 { // negative count = infinite stream
			s.remaining--
			if s.remaining == 0 {
				m.deactivate(s)
			}
		}
		m.stats.StreamElems++
		m.progressSCU()
	}
}

func (m *Machine) serveMemory() {
	// Writes drain first (they unblock conflicting loads), but a write
	// must not overtake an older unserved load to the same address.
	for m.portsLeft > 0 && m.writeQueue.n > 0 {
		w := m.writeQueue.at(0)
		if m.loadConflict(w) {
			break // keep write order; retry next cycle
		}
		ww := m.writeQueue.pop()
		if !m.writeMem(ww.addr, ww.size, ww.val) {
			return
		}
		m.portsLeft--
		m.stats.MemWrites++
		m.progress()
	}
	if m.unserved == 0 {
		return
	}
	// Scalar loads, in per-FIFO order, with store-conflict interlock
	// against *older* stores only.
	for c := 0; c < 2 && m.portsLeft > 0; c++ {
		for n := 0; n < 2 && m.portsLeft > 0; n++ {
			q := &m.inFIFO[c][n]
			for k := 0; k < q.n; k++ {
				e := q.at(k)
				if e.served {
					continue
				}
				if m.portsLeft == 0 {
					break
				}
				if m.storeConflict(e.addr, e.size, e.seq) {
					break // preserve per-FIFO order
				}
				if m.outputStreamConflict(e.addr, e.size) {
					break // an active output stream covers this range
				}
				val, ok := m.readMem(e.addr, e.size, rtl.Class(c))
				if !ok {
					return
				}
				e.val = val
				e.served = true
				e.ready = m.now + int64(m.cfg.MemLatency)
				m.noteEvent(e.ready)
				m.unserved--
				m.portsLeft--
				m.stats.MemReads++
				m.progress()
				if m.unserved == 0 {
					return // no unserved entries left anywhere
				}
			}
		}
	}
}

// storeConflict reports whether [addr, addr+size) overlaps any store
// older than seq that has been issued but not yet applied to memory.
// seq < 0 checks against all pending stores.
func (m *Machine) storeConflict(addr int64, size int, seq int64) bool {
	overlap := func(a int64, asz int) bool {
		return addr < a+int64(asz) && a < addr+int64(size)
	}
	older := func(s int64) bool { return seq < 0 || s < seq }
	for k := 0; k < m.writeQueue.n; k++ {
		w := m.writeQueue.at(k)
		if older(w.seq) && overlap(w.addr, w.size) {
			return true
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			us := &m.unmatchedStores[c][n]
			for k := 0; k < us.n; k++ {
				st := us.at(k)
				if older(st.seq) && overlap(st.addr, st.size) {
					return true
				}
			}
		}
	}
	return false
}

// outputStreamConflict reports whether an active output stream's
// remaining address range overlaps [addr, addr+size): a scalar load
// must wait for the stream to pass the address (its data is still in
// flight through the output FIFO).
func (m *Machine) outputStreamConflict(addr int64, size int) bool {
	if m.activeSCUs == 0 {
		return false
	}
	for _, s := range m.scus {
		if !s.active || s.input || s.remaining == 0 {
			continue
		}
		span := s.remaining
		if span < 0 {
			span = 1 << 30 // infinite stream: treat as unbounded
		}
		lo, hi := s.base, s.base+s.stride*span
		if s.stride < 0 {
			lo, hi = hi, lo
		}
		hi += int64(s.size)
		if addr < hi && lo < addr+int64(size) {
			return true
		}
	}
	return false
}

// loadConflict reports whether the write would overtake an older
// unserved load to an overlapping address.
func (m *Machine) loadConflict(w *writeReq) bool {
	if m.unserved == 0 {
		return false
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.inFIFO[c][n]
			for k := 0; k < q.n; k++ {
				e := q.at(k)
				if e.served || e.seq == 0 || e.seq >= w.seq {
					continue
				}
				if w.addr < e.addr+int64(e.size) && e.addr < w.addr+int64(w.size) {
					return true
				}
			}
		}
	}
	return false
}

func (m *Machine) readMem(addr int64, size int, c rtl.Class) (uint64, bool) {
	if addr < 0 || addr+int64(size) > int64(len(m.mem)) {
		m.fail("memory read out of range: addr=%d size=%d", addr, size)
		return 0, false
	}
	var raw uint64
	for k := size - 1; k >= 0; k-- {
		raw = raw<<8 | uint64(m.mem[addr+int64(k)])
	}
	if c == rtl.Float {
		if size == 8 {
			return raw, true
		}
		// 32-bit float loads are unused by the compiler but defined.
		f := math.Float32frombits(uint32(raw))
		return math.Float64bits(float64(f)), true
	}
	// Sign extend integer loads.
	switch size {
	case 1:
		return uint64(int64(int8(raw))), true
	case 4:
		return uint64(int64(int32(raw))), true
	default:
		return raw, true
	}
}

func (m *Machine) writeMem(addr int64, size int, val uint64) bool {
	if addr < 0 || addr+int64(size) > int64(len(m.mem)) {
		m.fail("memory write out of range: addr=%d size=%d", addr, size)
		return false
	}
	if size == 8 {
		for k := 0; k < 8; k++ {
			m.mem[addr+int64(k)] = byte(val >> (8 * k))
		}
		return true
	}
	// Integer truncation (and 32-bit float narrowing, unused).
	for k := 0; k < size; k++ {
		m.mem[addr+int64(k)] = byte(val >> (8 * k))
	}
	return true
}
