package sim

import (
	"sync"

	"wmstream/internal/rtl"
)

// The machine pool.  WM is fixed hardware that runs any program, and
// the pool treats a Machine the same way: building one allocates its
// memory image, rings and telemetry arrays, which shows up as GC churn
// under load, so Acquire hands out a recycled machine of the same
// allocation shape, binds the requested image to it and resets it to
// power-on state, and Release returns it.  A rearmed machine is
// bit-identical to a fresh one whatever image or behaviour settings it
// ran before (the pool tests assert it): rearm resets every mutable
// field New initializes, clears the whole memory and replays the
// image's initialized data, keeping only the allocations (memory
// buffer, ring buffers, telemetry arrays).  The image's decode and
// translation tables are shared process-wide, so binding a different
// image costs a translation-cache lookup.  Traced and profiled runs
// pool like any other: the observers are attached from the
// configuration on acquire and dropped on release.

// poolKey is a machine's allocation shape: the configuration fields
// New sizes an allocation from, taken after normalizeConfig (which may
// grow memory for an image with large data).  Nothing else keys the
// pool — not the image, and not the fields that only change behaviour
// (latencies, ports, stack top, cycle limits, engine), which the run
// loop reads from the machine's configuration and rearm rebinds — so
// machinePools holds one entry per distinct shape however many
// programs a process runs.  The per-run attachments (Ctx, Output,
// TraceSink, Profile) are reattached by Acquire.
type poolKey struct {
	memSize    int
	numSCU     int
	fifoDepth  int
	ccDepth    int
	queueDepth int
}

var machinePools sync.Map // poolKey -> *sync.Pool of *Machine

// poolFor returns the pool of machines shaped like the normalized
// configuration, creating it on first use.
func poolFor(cfg Config) *sync.Pool {
	key := poolKey{
		memSize:    cfg.MemSize,
		numSCU:     cfg.NumSCU,
		fifoDepth:  cfg.FIFODepth,
		ccDepth:    cfg.CCDepth,
		queueDepth: cfg.QueueDepth,
	}
	p, ok := machinePools.Load(key)
	if !ok {
		p, _ = machinePools.LoadOrStore(key, &sync.Pool{})
	}
	return p.(*sync.Pool)
}

// Acquire returns a machine for the image and configuration, recycled
// from the pool when one of the same shape is available, freshly built
// otherwise.  Pass the machine to Release when the run is finished;
// releasing is optional (an abandoned machine is simply collected).
func Acquire(img *Image, cfg Config) *Machine {
	norm := normalizeConfig(img, cfg)
	if v := poolFor(norm).Get(); v != nil {
		m := v.(*Machine)
		m.inPool = false
		m.rearm(img, norm)
		return m
	}
	m := New(img, norm)
	m.pooled = true
	return m
}

// Release returns a machine obtained from Acquire to its pool.  Calling
// it with a machine built by New, or a second time for the same
// acquire, is a no-op.  The machine must not be used after Release.
func Release(m *Machine) {
	if m == nil || !m.pooled || m.inPool {
		return
	}
	// The attachments were the caller's; drop them so the pooled
	// machine retains no references into the finished request.
	m.cfg.Ctx = nil
	m.cfg.Output = nil
	m.cfg.TraceSink = nil
	m.rec, m.retired = nil, nil
	m.inPool = true
	poolFor(m.cfg).Put(m)
}

// rearm resets a recycled machine to New's power-on state for the image
// under a configuration of the same shape, reusing every allocation.
// The decode and translation tables are rebound only when they would
// differ: another program, another engine, or other values of the
// latencies decode bakes in.
func (m *Machine) rearm(img *Image, cfg Config) {
	rebind := (img != m.img && img.Fingerprint() != m.img.Fingerprint()) ||
		cfg.Engine != m.cfg.Engine ||
		cfg.DivLatency != m.cfg.DivLatency ||
		cfg.MathLatency != m.cfg.MathLatency ||
		cfg.CvtLatency != m.cfg.CvtLatency
	m.img = img
	m.cfg = cfg
	if rebind {
		m.bind()
	}
	m.attach()

	m.now = 0
	m.pc = img.Entry
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
	for _, c := range img.Init {
		copy(m.mem[c.addr:], c.data)
	}
}
