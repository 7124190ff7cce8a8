package sim

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"wmstream/internal/telemetry"
)

// The translated engine.  An assembled image is lowered once — per
// (image fingerprint, latency parameters) — into flat tables of Go
// closures (see block.go), shared process-wide across every Machine
// running that image.  Each cycle walks the closure tables instead of
// decoding and interpreting: no kind switches, no expression
// interpretation, no hazard-kind dispatch, no fmt, no map lookups.
// Between cycles the run loop fast-forwards through provably stalled
// stretches (idle skips and SCU batches, see skip.go); those windows
// are properties of the machine state, not of how a cycle is
// evaluated.
//
// The engine is bit-identical to the reference interpreter — same
// Stats, same output bytes, same memory image, same telemetry cycle
// attribution, same faults at the same cycles — which the differential
// matrix in internal/bench enforces.  Runs that must observe every
// cycle (a trace recorder attached) fall back to the reference engine
// in RunSlice; everything else (traps, deadlock detection, slice
// boundaries, checkpoint save/restore) behaves identically here.

// translation is the compiled form of one image under one set of baked
// latency parameters.
type translation struct {
	dec    []decoded // decode cache, shared with the machines (read-only)
	issue  []issueFn // unit-side step per code index (dispatched kinds only)
	ifu    []ifuFn   // IFU-side step per code index
	blocks int       // superblocks formed (introspection)
}

// translate lowers every superblock of the image.
func translate(img *Image, cfg Config) *translation {
	dec := decodeImage(img, cfg)
	tr := &translation{
		dec:   dec,
		issue: make([]issueFn, len(img.Code)),
		ifu:   make([]ifuFn, len(img.Code)),
	}
	for _, b := range superblocks(img) {
		tr.blocks++
		for k := b.start; k < b.end; k++ {
			i := img.Code[k]
			d := &dec[k]
			if !ifuResident(i.Kind) {
				tr.issue[k] = makeIssue(k, i, d)
			}
			tr.ifu[k] = makeIFU(k, i, img.Target[k], d, len(img.Code))
		}
	}
	return tr
}

// --- the process-wide translation cache ----------------------------------

// transKey identifies a translation: the image fingerprint plus the
// only configuration parameters translation bakes in (the latencies
// the decode cache folds into per-instruction forwarding times).
// Structural parameters (FIFO depths, queue depths, memory geometry)
// are read from the machine at run time and do not key the cache.
type transKey struct {
	fp             [sha256.Size]byte
	div, math, cvt int
}

type transEntry struct {
	once sync.Once
	tr   *translation
	elem *list.Element // position in the LRU list (value: transKey)
}

type transCache struct {
	mu        sync.Mutex
	cap       int
	entries   map[transKey]*transEntry
	lru       *list.List
	hits      int64
	misses    int64
	evictions int64
}

var translations = &transCache{
	cap:     64,
	entries: make(map[transKey]*transEntry),
	lru:     list.New(),
}

// translationFor returns the cached translation for the image under the
// configuration, translating on first use.  Translation runs outside
// the cache lock (per-entry sync.Once), so a slow translation of one
// image never blocks lookups of others; an entry evicted while still
// referenced by machines keeps working — eviction only forgets it.
func translationFor(img *Image, cfg Config) *translation {
	key := transKey{
		fp:   img.Fingerprint(),
		div:  cfg.DivLatency,
		math: cfg.MathLatency,
		cvt:  cfg.CvtLatency,
	}
	c := translations
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
	} else {
		c.misses++
		e = &transEntry{}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		c.evictLocked()
	}
	c.mu.Unlock()
	e.once.Do(func() { e.tr = translate(img, cfg) })
	return e.tr
}

func (c *transCache) evictLocked() {
	for c.cap > 0 && c.lru.Len() > c.cap {
		back := c.lru.Back()
		delete(c.entries, back.Value.(transKey))
		c.lru.Remove(back)
		c.evictions++
	}
}

// TransCacheStats is a point-in-time view of the process-wide
// translation cache (exported for the serving layer's metrics).
type TransCacheStats struct {
	Entries   int
	Cap       int
	Hits      int64
	Misses    int64
	Evictions int64
}

// TranslationCacheStats reports the translation cache counters.
func TranslationCacheStats() TransCacheStats {
	c := translations
	c.mu.Lock()
	defer c.mu.Unlock()
	return TransCacheStats{
		Entries:   len(c.entries),
		Cap:       c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// SetTranslationCacheCap bounds the number of retained translations
// (n <= 0 removes the bound) and evicts down to the new cap.
func SetTranslationCacheCap(n int) {
	c := translations
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.evictLocked()
}

// --- the run loop --------------------------------------------------------

// runTranslated advances the translated engine up to the absolute cycle
// limit: one stepT per cycle, then an idle skip or an SCU batch when
// the cycle proves one safe (see skip.go).  Slicing cannot change what
// the engine computes: a skip or batch window chopped at the limit
// resumes with a re-observed template cycle that — being a replay of
// the same stalled cycle — charges the same causes and stat deltas the
// unchopped window would have, so the bulk accounting stays linear
// across the cut.
func (m *Machine) runTranslated(limit int64) (bool, error) {
	if m.tr == nil {
		m.tr = translationFor(m.img, m.cfg)
	}
	// Another engine may have run the previous slice (a recorder can
	// force the reference engine) and rewritten cycleCause; make the
	// first idle cycle of each covered slot re-establish its cause.
	m.scuCauseIdle = false
	m.unitCauseIdle = [2]bool{}
	slack := m.watchdogSlack()
	done := m.cancelDone()
	lastCheck := m.now
	for !m.done() {
		if m.now >= limit {
			return false, nil
		}
		m.now++
		if m.now > m.cfg.MaxCycles {
			return false, m.maxCyclesTrap()
		}
		// The clock can jump, so track the last checked cycle instead
		// of masking like the reference engine.
		if done != nil && m.now-lastCheck >= cancelCheckInterval {
			lastCheck = m.now
			select {
			case <-done:
				return false, m.cfg.Ctx.Err()
			default:
			}
		}
		loadStalls := m.stats.LoadStalls
		branchStalls := m.stats.BranchStalls
		ifuFull := m.stats.IFUStallFull
		m.scuProgress = false
		m.otherProgress = false
		m.stepT()
		if m.err != nil {
			return false, m.err
		}
		if m.now-m.lastProgress > int64(m.cfg.MemLatency)+slack {
			return false, &DeadlockError{Snapshot: m.snapshot()}
		}
		if m.otherProgress {
			continue
		}
		dLoad := m.stats.LoadStalls - loadStalls
		dBranch := m.stats.BranchStalls - branchStalls
		dIFU := m.stats.IFUStallFull - ifuFull
		if m.scuProgress {
			if err := m.batchSCU(dLoad, dBranch, dIFU, slack, limit); err != nil {
				return false, err
			}
		} else {
			m.idleSkip(dLoad, dBranch, dIFU, slack, limit)
		}
	}
	m.stats.Cycles = m.now
	return true, nil
}

// stepT evaluates one machine cycle through the closure tables.  The
// phase order is step()'s; the store matcher and memory server are
// skipped outright on the (common) cycles where their queues are empty
// — on such cycles they are no-ops in the reference too.
func (m *Machine) stepT() {
	m.portsLeft = m.cfg.MemPorts
	if m.unmatchedStores[0][0].n|m.unmatchedStores[0][1].n|
		m.unmatchedStores[1][0].n|m.unmatchedStores[1][1].n != 0 {
		m.matchStores()
	}
	m.stepSCUsT()
	if m.writeQueue.n != 0 || m.unserved != 0 {
		m.serveMemory()
	}
	m.stepUnitT(0)
	m.stepUnitT(1)
	c := m.ifuCycleT()
	m.unitCounts[unitIFU].Add(c)
	m.cycleCause[unitIFU] = c
}

// stepSCUsT runs the SCUs, bulk-charging the all-idle case (no active
// stream with elements left — exactly the per-unit Idle condition of
// stepSCUs) without the per-unit scan bookkeeping.
func (m *Machine) stepSCUsT() {
	if m.activeSCUs != 0 {
		for _, s := range m.scus {
			if s.active && s.remaining != 0 {
				m.flushSCUIdle()
				m.scuCauseIdle = false
				m.stepSCUs()
				return
			}
		}
	}
	// All SCUs idle: defer the per-unit charge (flushed before the
	// counts are observed) and write the Idle causes only once per
	// stretch — idleSkip reads cycleCause every no-progress cycle.
	if !m.scuCauseIdle {
		for u := unitSCU0; u < len(m.unitCounts); u++ {
			m.cycleCause[u] = telemetry.CauseIdle
		}
		m.scuCauseIdle = true
	}
	m.scuIdleDeferred++
}

// stepUnitT is stepUnit through the issue table: the head's compiled
// issue function performs the hazard checks and (on issue) the
// instruction's effect, returning the cycle's cause for accounting.
func (m *Machine) stepUnitT(c int) {
	q := &m.queues[c]
	if q.n == 0 {
		// Empty queue: defer the Idle charge; write the cause once per
		// idle stretch (idleSkip and batchSCU read cycleCause).
		if !m.unitCauseIdle[c] {
			m.cycleCause[unitIEU+c] = telemetry.CauseIdle
			m.unitCauseIdle[c] = true
		}
		m.unitIdleDeferred[c]++
		return
	}
	u := unitIEU + c
	d := q.at(0)
	cause := m.tr.issue[d.idx](m, d.seq)
	if cause == telemetry.CauseFIFOEmpty {
		m.stats.LoadStalls++
	}
	m.unitCauseIdle[c] = false
	m.unitCounts[u].Add(cause)
	m.cycleCause[u] = cause
}

// ifuCycleT is ifuCycle through the IFU table.  The zero-cost budget,
// the stall-after-progress promotion to Issued, and the out-of-range
// fault live here; everything per-instruction lives in the closures.
func (m *Machine) ifuCycleT() telemetry.Cause {
	if m.halted {
		return telemetry.CauseIdle
	}
	if m.ifuWait > 0 {
		m.ifuWait--
		m.progress()
		return telemetry.CauseFetch
	}
	ifu := m.tr.ifu
	did := false
	for zc := 0; zc < maxZeroCostOps; zc++ {
		pc := m.pc
		if pc < 0 || pc >= len(ifu) {
			m.fail("pc out of range: %d", pc)
			if did {
				return telemetry.CauseIssued
			}
			return telemetry.CauseIdle
		}
		cause, action := ifu[pc](m)
		switch action {
		case ifuCont:
			did = true
		case ifuStop:
			return cause
		default: // ifuStall
			if did {
				return telemetry.CauseIssued
			}
			return cause
		}
	}
	return telemetry.CauseIssued // zero-cost budget exhausted mid-cycle
}
