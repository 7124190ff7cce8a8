package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"wmstream/internal/rtl"
)

// Machine state serialization: SaveState captures every bit of
// mutable simulation state mid-run, RestoreState loads it into a
// machine built from the same image and configuration.  The encoding
// is engine-independent — both engines mutate exactly the same state
// between cycles — so a run may be checkpointed under one engine and
// resumed under the other and still be bit-identical to an
// uninterrupted run (the differential tests in internal/bench enforce
// this across the benchmark suite).
//
// The format is a versioned little-endian byte stream.  A header
// echoes the machine parameters and the image shape; RestoreState
// refuses a checkpoint whose header does not match the target
// machine, since replaying state into a different machine would be
// silently wrong rather than loudly so.
//
// Deliberately not serialized, because a slice boundary (the only
// place SaveState is legal) makes them dead: portsLeft (reset at the
// top of every step), scuProgress/otherProgress (reset every
// translated-engine cycle before use), cycleCause (rewritten for every
// unit by every cycle's accounting before the translated engine reads
// it), and the evalProg scratch stack.  Queued dispatched entries are
// serialized by code index and sequence number; their register masks
// are rebuilt from the restoring machine's decode cache.

// stateMagic identifies and versions the checkpoint encoding.
const stateMagic = "wmsim-state-1"

// stateMaxCount caps every element count read from a checkpoint, so a
// corrupt or adversarial stream cannot drive a multi-gigabyte
// allocation before the length checks catch it.
const stateMaxCount = 1 << 24

// SaveState serializes the complete simulation state of a live run.
// It fails on a machine that is tracing (Config.TraceSink holds
// unreplayable recorder state) or already terminal.
func (m *Machine) SaveState() ([]byte, error) {
	if m.rec != nil {
		return nil, fmt.Errorf("sim: cannot checkpoint a traced run (Config.TraceSink is set)")
	}
	if m.finished {
		return nil, fmt.Errorf("sim: cannot checkpoint a finished run")
	}
	e := &stateEnc{buf: make([]byte, 0, len(m.mem)+4096)}
	e.str(stateMagic)
	m.encodeHeader(e)

	e.i64(m.now)
	e.int(m.pc)
	e.bool(m.halted)
	e.int(m.ifuWait)
	e.i64(m.seq)
	e.i64(m.memSeq)
	e.int(m.unserved)
	e.i64(m.lastProgress)
	e.int(m.lastRetired)
	e.str(m.lastUnit)

	m.encodeRegs(e)

	for c := 0; c < 2; c++ {
		q := &m.queues[c]
		e.int(q.n)
		for k := 0; k < q.n; k++ {
			d := q.at(k)
			e.int(d.idx)
			e.i64(d.seq)
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.inFIFO[c][n]
			e.int(q.n)
			for k := 0; k < q.n; k++ {
				f := q.at(k)
				e.u64(f.val)
				e.i64(f.ready)
				e.bool(f.served)
				e.i64(f.addr)
				e.int(f.size)
				e.i64(f.seq)
			}
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.outFIFO[c][n]
			e.int(q.n)
			for k := 0; k < q.n; k++ {
				e.u64(*q.at(k))
			}
		}
	}
	for c := 0; c < 2; c++ {
		q := &m.ccFIFO[c]
		e.int(q.n)
		for k := 0; k < q.n; k++ {
			cc := q.at(k)
			e.bool(cc.val)
			e.i64(cc.ready)
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			e.i64(m.streamIter[c][n])
		}
	}

	for _, s := range m.scus {
		e.bool(s.active)
		e.bool(s.input)
		e.int(int(s.class))
		e.int(s.fifoN)
		e.i64(s.base)
		e.i64(s.stride)
		e.int(s.size)
		e.i64(s.remaining)
	}

	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.unmatchedStores[c][n]
			e.int(q.n)
			for k := 0; k < q.n; k++ {
				st := q.at(k)
				e.i64(st.addr)
				e.int(st.size)
				e.i64(st.seq)
			}
		}
	}
	{
		q := &m.writeQueue
		e.int(q.n)
		for k := 0; k < q.n; k++ {
			w := q.at(k)
			e.i64(w.addr)
			e.int(w.size)
			e.u64(w.val)
			e.i64(w.seq)
		}
	}

	m.flushSCUIdle()
	m.encodeStats(e)
	e.int(len(m.unitCounts))
	for _, u := range m.unitCounts {
		for _, n := range u.Counts {
			e.i64(n)
		}
	}
	if m.retired != nil {
		e.int(len(m.retired))
		for _, n := range m.retired {
			e.i64(n)
		}
	} else {
		e.int(0)
	}
	e.bytes(m.mem)
	return e.buf, nil
}

// RestoreState loads a SaveState checkpoint into this machine, which
// must have been built by New from the same image and configuration.
// Any prior state of the machine is overwritten.  On error the
// machine must be considered corrupt and discarded.
func (m *Machine) RestoreState(data []byte) error {
	if m.rec != nil {
		return fmt.Errorf("sim: cannot restore into a traced machine (Config.TraceSink is set)")
	}
	d := &stateDec{buf: data}
	if magic := d.str(); d.err == nil && magic != stateMagic {
		return fmt.Errorf("sim: not a machine checkpoint (bad magic %q)", magic)
	}
	if err := m.checkHeader(d); err != nil {
		return err
	}

	m.now = d.i64()
	m.pc = d.int()
	m.halted = d.bool()
	m.ifuWait = d.int()
	m.seq = d.i64()
	m.memSeq = d.i64()
	m.unserved = d.int()
	m.lastProgress = d.i64()
	m.lastRetired = d.int()
	m.lastUnit = d.str()

	// The per-register access lists repeat what the queues hold: skip
	// them, and check them against the queues once those are loaded.
	regsAt := d.off
	for c := 0; c < 2; c++ {
		for n := 0; n < rtl.NumArchRegs; n++ {
			m.regs[c][n] = d.u64()
			m.readyAt[c][n] = d.i64()
			for k := d.count(); k > 0 && d.err == nil; k-- {
				d.i64()
				d.bool()
			}
		}
	}
	regs := d.buf[regsAt:d.off]

	resetRing(&m.queues[0])
	resetRing(&m.queues[1])
	for c := 0; c < 2; c++ {
		q := &m.queues[c]
		cnt := d.count()
		for k := 0; k < cnt && d.err == nil; k++ {
			idx, seq := d.int(), d.i64()
			if m.checkQueued(d, rtl.Class(c), idx, seq) {
				q.push(m.entry(idx, seq))
			}
		}
	}
	if d.err == nil {
		e := &stateEnc{}
		if m.encodeRegs(e); !bytes.Equal(e.buf, regs) {
			d.fail("register access lists disagree with the unit queues")
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.inFIFO[c][n]
			resetRing(q)
			cnt := d.count()
			for k := 0; k < cnt && d.err == nil; k++ {
				q.push(fifoEntry{
					val:    d.u64(),
					ready:  d.i64(),
					served: d.bool(),
					addr:   d.i64(),
					size:   d.int(),
					seq:    d.i64(),
				})
			}
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.outFIFO[c][n]
			resetRing(q)
			cnt := d.count()
			for k := 0; k < cnt && d.err == nil; k++ {
				q.push(d.u64())
			}
		}
	}
	for c := 0; c < 2; c++ {
		q := &m.ccFIFO[c]
		resetRing(q)
		cnt := d.count()
		for k := 0; k < cnt && d.err == nil; k++ {
			q.push(ccEntry{val: d.bool(), ready: d.i64()})
		}
	}
	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			m.streamIter[c][n] = d.i64()
		}
	}

	for _, s := range m.scus {
		s.active = d.bool()
		s.input = d.bool()
		s.class = rtl.Class(d.int())
		s.fifoN = d.int()
		s.base = d.i64()
		s.stride = d.i64()
		s.size = d.int()
		s.remaining = d.i64()
		if d.err == nil && (s.class > 1 || s.fifoN < 0 || s.fifoN > 1) {
			return fmt.Errorf("sim: checkpoint SCU references FIFO (%d,%d) out of range", s.class, s.fifoN)
		}
	}
	// The stream censuses are derived state; rebuild them.
	m.outStreams = [2][2]int{}
	m.activeSCUs = 0
	for _, s := range m.scus {
		if s.active {
			m.activeSCUs++
			if !s.input {
				m.outStreams[s.class][s.fifoN]++
			}
		}
	}

	for c := 0; c < 2; c++ {
		for n := 0; n < 2; n++ {
			q := &m.unmatchedStores[c][n]
			resetRing(q)
			cnt := d.count()
			for k := 0; k < cnt && d.err == nil; k++ {
				q.push(storeReq{addr: d.i64(), size: d.int(), seq: d.i64()})
			}
		}
	}
	{
		q := &m.writeQueue
		resetRing(q)
		cnt := d.count()
		for k := 0; k < cnt && d.err == nil; k++ {
			q.push(writeReq{addr: d.i64(), size: d.int(), val: d.u64(), seq: d.i64()})
		}
	}

	m.decodeStats(d)
	units := d.count()
	if d.err == nil && units != len(m.unitCounts) {
		return fmt.Errorf("sim: checkpoint has %d telemetry units, machine has %d", units, len(m.unitCounts))
	}
	for u := 0; u < units && d.err == nil; u++ {
		for c := range m.unitCounts[u].Counts {
			m.unitCounts[u].Counts[c] = d.i64()
		}
	}
	retired := d.count()
	if retired > 0 {
		if d.err == nil && (m.retired == nil || retired != len(m.retired)) {
			return fmt.Errorf("sim: checkpoint carries a profile the machine was not configured for")
		}
		for k := 0; k < retired && d.err == nil; k++ {
			m.retired[k] = d.i64()
		}
	} else if m.retired != nil {
		for k := range m.retired {
			m.retired[k] = 0
		}
	}
	mem := d.bytes()
	if d.err == nil && len(mem) != len(m.mem) {
		return fmt.Errorf("sim: checkpoint memory is %d bytes, machine has %d", len(mem), len(m.mem))
	}
	if d.err == nil {
		copy(m.mem, mem)
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("sim: %d trailing bytes after checkpoint", len(d.buf)-d.off)
	}
	m.finished = false
	m.termErr = nil
	m.err = nil
	// The next-event cache and ready mask are derived state: force a
	// rescan, and mark every register as possibly-ready (stale bits are
	// cleared lazily by the scan).
	m.nextEv = 0
	m.readyMask = [2]uint32{^uint32(0), ^uint32(0)}
	// Deferred SCU Idle charges belong to the machine that ran the
	// cycles, not to the restored state (the counts in the checkpoint
	// are already flushed).
	m.scuIdleDeferred = 0
	m.scuCauseIdle = false
	m.unitIdleDeferred = [2]int64{}
	m.unitCauseIdle = [2]bool{}
	return nil
}

// encodeRegs writes the register file.  Each register carries the list
// of its in-flight accesses — a record the machine no longer keeps,
// since the unit queues hold the same facts — rebuilt here from the
// queued entries in dispatch order: a read per operand occurrence, then
// the write.
func (m *Machine) encodeRegs(e *stateEnc) {
	queued := make([]dispatched, 0, m.queues[0].n+m.queues[1].n)
	for c := range m.queues {
		for k := 0; k < m.queues[c].n; k++ {
			queued = append(queued, *m.queues[c].at(k))
		}
	}
	sort.Slice(queued, func(a, b int) bool { return queued[a].seq < queued[b].seq })
	for c := 0; c < 2; c++ {
		for n := 0; n < rtl.NumArchRegs; n++ {
			e.u64(m.regs[c][n])
			e.i64(m.readyAt[c][n])
			r := rtl.Reg{Class: rtl.Class(c), N: n}
			bit := regBit(r)
			at, cnt := len(e.buf), 0
			e.int(0)
			for _, q := range queued {
				if q.amask&bit == 0 {
					continue
				}
				for _, op := range m.dec[q.idx].ops {
					if op.reg == r {
						e.i64(q.seq)
						e.bool(false)
						cnt++
					}
				}
				if q.wmask&bit != 0 {
					e.i64(q.seq)
					e.bool(true)
					cnt++
				}
			}
			binary.LittleEndian.PutUint64(e.buf[at:], uint64(cnt))
		}
	}
}

// checkQueued validates an entry read for unit c's queue against the
// entries read before it — the instruction must be one unit c
// executes; sequence numbers must ascend within the queue, differ
// across the two queues, and not pass the last dispatch — and reports
// whether the decoder is still error-free.
func (m *Machine) checkQueued(d *stateDec, c rtl.Class, idx int, seq int64) bool {
	q, other := &m.queues[c], &m.queues[1-c]
	switch {
	case d.err != nil:
	case idx < 0 || idx >= len(m.img.Code):
		d.fail("queue entry has code index %d out of range", idx)
	case ifuResident(m.img.Code[idx].Kind) || m.dec[idx].unit != c:
		d.fail("%s queue holds %s (code index %d)", c, m.img.Code[idx], idx)
	case seq > m.seq:
		d.fail("queue entry seq %d after the last dispatch %d", seq, m.seq)
	case q.n > 0 && q.at(q.n-1).seq >= seq:
		d.fail("%s queue seq %d does not ascend", c, seq)
	default:
		for k := 0; k < other.n; k++ {
			if other.at(k).seq == seq {
				d.fail("seq %d queued on both units", seq)
			}
		}
	}
	return d.err == nil
}

// encodeHeader writes the machine parameters a checkpoint is only
// valid for; checkHeader verifies them field by field so a mismatch
// names the offending parameter.
func (m *Machine) encodeHeader(e *stateEnc) {
	for _, v := range m.headerFields() {
		e.i64(v.val)
	}
	e.bool(m.cfg.Profile)
}

func (m *Machine) checkHeader(d *stateDec) error {
	for _, v := range m.headerFields() {
		got := d.i64()
		if d.err == nil && got != v.val {
			return fmt.Errorf("sim: checkpoint %s is %d, machine has %d", v.name, got, v.val)
		}
	}
	profile := d.bool()
	if d.err == nil && profile != m.cfg.Profile {
		return fmt.Errorf("sim: checkpoint and machine disagree on Config.Profile")
	}
	return d.err
}

type headerField struct {
	name string
	val  int64
}

func (m *Machine) headerFields() []headerField {
	return []headerField{
		{"MemLatency", int64(m.cfg.MemLatency)},
		{"MemPorts", int64(m.cfg.MemPorts)},
		{"FIFODepth", int64(m.cfg.FIFODepth)},
		{"CCDepth", int64(m.cfg.CCDepth)},
		{"QueueDepth", int64(m.cfg.QueueDepth)},
		{"NumSCU", int64(m.cfg.NumSCU)},
		{"DivLatency", int64(m.cfg.DivLatency)},
		{"MathLatency", int64(m.cfg.MathLatency)},
		{"CvtLatency", int64(m.cfg.CvtLatency)},
		{"StackTop", m.cfg.StackTop},
		{"MemSize", int64(m.cfg.MemSize)},
		{"MaxCycles", m.cfg.MaxCycles},
		{"WatchdogSlack", int64(m.cfg.WatchdogSlack)},
		{"code length", int64(len(m.img.Code))},
		{"entry point", int64(m.img.Entry)},
		{"data end", m.img.DataEnd},
	}
}

// statsFields enumerates the scalar counters of Stats in encoding
// order (Units lives in unitCounts and is serialized separately).
func statsFields(st *Stats) []*int64 {
	return []*int64{
		&st.Cycles, &st.Dispatched, &st.IntIssued, &st.FloatIssued,
		&st.Branches, &st.BranchStalls, &st.MemReads, &st.MemWrites,
		&st.StreamElems, &st.LoadStalls, &st.IFUStallFull,
		&st.Instructions, &st.StreamsOpened,
	}
}

func (m *Machine) encodeStats(e *stateEnc) {
	for _, p := range statsFields(&m.stats) {
		e.i64(*p)
	}
}

func (m *Machine) decodeStats(d *stateDec) {
	for _, p := range statsFields(&m.stats) {
		*p = d.i64()
	}
}

// resetRing empties a ring in place, keeping its storage.
func resetRing[T any](r *ring[T]) {
	r.head = 0
	r.n = 0
}

// --- primitive little-endian encoding ------------------------------------

type stateEnc struct{ buf []byte }

func (e *stateEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *stateEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *stateEnc) int(v int)    { e.i64(int64(v)) }
func (e *stateEnc) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}
func (e *stateEnc) bytes(p []byte) {
	e.int(len(p))
	e.buf = append(e.buf, p...)
}
func (e *stateEnc) str(s string) { e.bytes([]byte(s)) }

// stateDec decodes with a sticky error: after the first failure every
// read returns a zero value, so decode loops need no per-read checks.
type stateDec struct {
	buf []byte
	off int
	err error
}

func (d *stateDec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: corrupt checkpoint: "+format, args...)
	}
}

func (d *stateDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *stateDec) i64() int64 { return int64(d.u64()) }

func (d *stateDec) int() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// count reads a non-negative element count with a sanity bound.
func (d *stateDec) count() int {
	v := d.int()
	if d.err == nil && (v < 0 || v > stateMaxCount) {
		d.fail("implausible element count %d", v)
		return 0
	}
	return v
}

func (d *stateDec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b != 0
}

func (d *stateDec) bytes() []byte {
	n := d.int()
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("truncated at offset %d", d.off)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

func (d *stateDec) str() string { return string(d.bytes()) }
