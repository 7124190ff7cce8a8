package sim

import (
	"crypto/sha256"
	"sync"

	"wmstream/internal/rtl"
)

// The machine pool.  A serving process runs the same handful of images
// over and over; building a Machine per request allocates its memory
// image, rings and telemetry arrays each time, which shows up as GC
// churn under load.  Acquire hands out a recycled machine — same image,
// same structural configuration — reset to power-on state, and Release
// returns it.  A rearmed machine is bit-identical to a fresh one (the
// pool tests assert it): rearm resets every mutable field New
// initializes and rewrites the memory image, keeping only the
// allocations (memory buffer, ring buffers, telemetry arrays) and the
// shared decode/translation tables.
//
// Runs that attach per-cycle observers (Config.TraceSink, Config.Trace)
// or the profiler bypass the pool: their machines carry run-specific
// state (recorder, retirement counts) that is not worth recycling.

// poolKey identifies interchangeable machines: the image identity plus
// every configuration field that shapes allocations or behavior.  The
// per-run attachments (Ctx, Output) are excluded — Acquire reattaches
// them — and the observer attachments (Trace, TraceSink, Profile)
// bypass the pool entirely.
type poolKey struct {
	fp            [sha256.Size]byte
	memLatency    int
	memPorts      int
	fifoDepth     int
	ccDepth       int
	queueDepth    int
	numSCU        int
	divLatency    int
	mathLatency   int
	cvtLatency    int
	stackTop      int64
	memSize       int
	maxCycles     int64
	watchdogSlack int
	engine        Engine
}

var machinePools sync.Map // poolKey -> *sync.Pool of *Machine

// poolable reports whether the configuration admits recycling.
func poolable(cfg Config) bool {
	return cfg.TraceSink == nil && cfg.Trace == nil && !cfg.Profile
}

func keyFor(img *Image, cfg Config) poolKey {
	return poolKey{
		fp:            img.Fingerprint(),
		memLatency:    cfg.MemLatency,
		memPorts:      cfg.MemPorts,
		fifoDepth:     cfg.FIFODepth,
		ccDepth:       cfg.CCDepth,
		queueDepth:    cfg.QueueDepth,
		numSCU:        cfg.NumSCU,
		divLatency:    cfg.DivLatency,
		mathLatency:   cfg.MathLatency,
		cvtLatency:    cfg.CvtLatency,
		stackTop:      cfg.StackTop,
		memSize:       cfg.MemSize,
		maxCycles:     cfg.MaxCycles,
		watchdogSlack: cfg.WatchdogSlack,
		engine:        cfg.Engine,
	}
}

// Acquire returns a machine for the image and configuration, recycled
// from the pool when one is available and the configuration permits
// (no per-cycle observers), freshly built otherwise.  Pass the machine
// to Release when the run is finished; releasing is optional (an
// abandoned machine is simply collected).
func Acquire(img *Image, cfg Config) *Machine {
	if !poolable(cfg) {
		return New(img, cfg)
	}
	norm := normalizeConfig(img, cfg)
	key := keyFor(img, norm)
	p, ok := machinePools.Load(key)
	if !ok {
		p, _ = machinePools.LoadOrStore(key, &sync.Pool{})
	}
	if v := p.(*sync.Pool).Get(); v != nil {
		m := v.(*Machine)
		m.rearm(norm)
		return m
	}
	m := New(img, norm)
	m.pooled = true
	return m
}

// Release returns a machine obtained from Acquire to its pool.  Calling
// it with a machine built by New (or one Acquire declined to pool) is a
// no-op.  The machine must not be used after Release.
func Release(m *Machine) {
	if m == nil || !m.pooled {
		return
	}
	// Terminal observers were the caller's; drop them so the pooled
	// machine retains no references into the finished request.
	m.cfg.Ctx = nil
	m.cfg.Output = nil
	key := keyFor(m.img, m.cfg)
	if p, ok := machinePools.Load(key); ok {
		p.(*sync.Pool).Put(m)
	}
}

// rearm resets a recycled machine to New's power-on state under the
// (structurally identical) configuration, reusing every allocation.
func (m *Machine) rearm(cfg Config) {
	m.cfg = cfg

	m.now = 0
	m.pc = m.img.Entry
	m.halted = false
	m.ifuWait = 0

	m.regs = [2][rtl.NumArchRegs]uint64{}
	m.readyAt = [2][rtl.NumArchRegs]int64{}
	m.seq = 0
	m.regs[rtl.Int][rtl.SP] = uint64(cfg.StackTop)

	for c := 0; c < 2; c++ {
		m.queues[c].reset()
		m.ccFIFO[c].reset()
		for n := 0; n < 2; n++ {
			m.inFIFO[c][n].reset()
			m.outFIFO[c][n].reset()
			m.unmatchedStores[c][n].reset()
		}
	}
	m.streamIter = [2][2]int64{}
	for _, s := range m.scus {
		*s = scu{}
	}
	m.activeSCUs = 0
	m.outStreams = [2][2]int{}
	m.writeQueue.reset()
	m.portsLeft = 0
	m.memSeq = 0
	m.unserved = 0

	m.lastProgress = 0
	m.lastRetired = -1
	m.lastUnit = ""
	m.stats = Stats{}
	m.err = nil
	m.finished = false
	m.termErr = nil
	m.flushed = false
	m.scuProgress = false
	m.otherProgress = false
	for u := range m.cycleCause {
		m.cycleCause[u] = 0
	}
	m.evalStack = m.evalStack[:0]
	for u := range m.unitCounts {
		for c := range m.unitCounts[u].Counts {
			m.unitCounts[u].Counts[c] = 0
		}
	}
	m.nextEv = 0
	m.readyMask = [2]uint32{}
	m.scuIdleDeferred = 0
	m.unitIdleDeferred = [2]int64{}
	m.scuCauseIdle = false
	m.unitCauseIdle = [2]bool{}

	// The memory image: clear and replay the initialized chunks
	// (compiles to a memclr; still far cheaper than a fresh allocation
	// plus the garbage of the old one).
	for i := range m.mem {
		m.mem[i] = 0
	}
	for _, c := range m.img.Init {
		copy(m.mem[c.addr:], c.data)
	}
}
