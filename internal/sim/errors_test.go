package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// runErr assembles and executes a program expected to fail, returning
// the error.
func runErr(t *testing.T, cfg Config, src string) error {
	t.Helper()
	p, err := rtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := Link(p)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := New(img, cfg)
	_, err = m.Run()
	if err == nil {
		t.Fatalf("run unexpectedly succeeded:\n%s", src)
	}
	return err
}

// The IEU reads input FIFO r0 that nothing ever fills: the head of the
// integer queue blocks forever and the watchdog must identify exactly
// that — the blocked unit, the instruction, and the FIFO it waits on.
const starvedFIFOProgram = `
.entry main
.func main
r2 := r0
halt
.end
`

func TestDeadlockErrorForensics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogSlack = 100
	err := runErr(t, cfg, starvedFIFOProgram)

	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error is %T (%v), want *DeadlockError", err, err)
	}
	s := dl.Snapshot
	if s.Cycle <= 0 {
		t.Errorf("snapshot cycle = %d, want > 0", s.Cycle)
	}
	if s.Func != "main" {
		t.Errorf("snapshot function = %q, want main", s.Func)
	}
	ieu := s.Units[rtl.Int]
	if ieu.Unit != "IEU" || ieu.QueueLen != 1 {
		t.Errorf("IEU state = %+v, want queue of 1", ieu)
	}
	if !strings.Contains(ieu.HeadInstr, "r2 := r0") {
		t.Errorf("blocked head = %q, want the FIFO read", ieu.HeadInstr)
	}
	if !strings.Contains(ieu.BlockedOn, "input FIFO r0") {
		t.Errorf("BlockedOn = %q, want it to name input FIFO r0", ieu.BlockedOn)
	}
	if ieu.InFIFO[0] != 0 {
		t.Errorf("input FIFO r0 occupancy = %d, want 0 (starved)", ieu.InFIFO[0])
	}
	// The rendered error must carry the same forensics end to end.
	for _, want := range []string{"deadlock", "IEU", "input FIFO r0", "r2 := r0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text missing %q:\n%s", want, err)
		}
	}
}

func TestWatchdogSlackConfigurable(t *testing.T) {
	short := DefaultConfig()
	short.WatchdogSlack = 50
	long := DefaultConfig()
	long.WatchdogSlack = 2000

	var dlShort, dlLong *DeadlockError
	if !errors.As(runErr(t, short, starvedFIFOProgram), &dlShort) {
		t.Fatal("short-slack run did not return *DeadlockError")
	}
	if !errors.As(runErr(t, long, starvedFIFOProgram), &dlLong) {
		t.Fatal("long-slack run did not return *DeadlockError")
	}
	if dlShort.Snapshot.Cycle >= dlLong.Snapshot.Cycle {
		t.Errorf("watchdog ignores WatchdogSlack: fired at cycle %d (slack 50) vs %d (slack 2000)",
			dlShort.Snapshot.Cycle, dlLong.Snapshot.Cycle)
	}
}

func TestTrapErrorCarriesSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	err := runErr(t, cfg, `
.entry main
.func main
r3 := 7
r4 := 0
r2 := (r3 / r4)
halt
.end
`)
	var tr *TrapError
	if !errors.As(err, &tr) {
		t.Fatalf("error is %T (%v), want *TrapError", err, err)
	}
	if !strings.Contains(tr.Reason, "division") {
		t.Errorf("trap reason = %q, want division failure", tr.Reason)
	}
	if tr.Snapshot.Func != "main" {
		t.Errorf("snapshot function = %q, want main", tr.Snapshot.Func)
	}
}

func TestMaxCyclesTrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 500
	// A live loop: the machine keeps making progress, so only the cycle
	// bound (not the deadlock watchdog) can stop it.
	err := runErr(t, cfg, `
.entry main
.func main
r3 := 0
L1:
r3 := (r3 + 1)
jump L1
.end
`)
	var tr *TrapError
	if !errors.As(err, &tr) {
		t.Fatalf("error is %T (%v), want *TrapError", err, err)
	}
	if !strings.Contains(tr.Reason, "exceeded") {
		t.Errorf("trap reason = %q, want cycle-bound exhaustion", tr.Reason)
	}
	if dl := new(DeadlockError); errors.As(err, &dl) {
		t.Error("live loop misclassified as deadlock")
	}
}

// TestDeadlockBehindFullStream: a stream fills its FIFO and stalls for
// good while the IFU waits for a second stream control unit.  The
// translated engine batches the stream's cycles, and the batch must end
// in time for the watchdog: both engines report the same deadlock at
// the same cycle with the same statistics.
func TestDeadlockBehindFullStream(t *testing.T) {
	src := `
.entry main
.data w 64 align=4
.func main
r5 := _w
sin32r r0, r5, -1, 4
sin32r r1, r5, -1, 4
halt
.end
`
	var msgs [2]string
	var stats [2]Stats
	for _, eng := range []Engine{EngineReference, EngineTranslated} {
		cfg := DefaultConfig()
		cfg.NumSCU = 1
		cfg.MaxCycles = 1 << 20
		cfg.Engine = eng
		p, err := rtl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Link(p)
		if err != nil {
			t.Fatal(err)
		}
		m := New(img, cfg)
		stats[eng], err = m.Run()
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s engine: got %v, want a deadlock", eng, err)
		}
		msgs[eng] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Errorf("engines report different deadlocks:\nreference:  %s\ntranslated: %s", msgs[0], msgs[1])
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("engines leave different statistics:\nreference:  %+v\ntranslated: %+v", stats[0], stats[1])
	}
}
