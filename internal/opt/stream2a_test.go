package opt

import (
	"fmt"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// --- step 2a per read: a read streams past the writes that trail it -------------

// streamsPastScalarStores checks that Streams turned the loop's only
// in-loop load into a stream while its stores stayed scalar.
func streamsPastScalarStores(t *testing.T, f *rtl.Func, loads, stores int) {
	t.Helper()
	if !chk(Streams(f, 4)) {
		t.Fatalf("loop not streamed:\n%s", listing(f))
	}
	if n := countKind(f, rtl.KStreamIn); n != 1 {
		t.Errorf("%d stream-ins, want 1:\n%s", n, listing(f))
	}
	if n := countKind(f, rtl.KLoad); n != loads {
		t.Errorf("%d scalar loads, want %d:\n%s", n, loads, listing(f))
	}
	if countKind(f, rtl.KStreamOut) != 0 || countKind(f, rtl.KStore) != stores {
		t.Errorf("a store of the read's partition streamed:\n%s", listing(f))
	}
	if !strings.Contains(listing(f), "stream in past scalar stores") {
		t.Errorf("stream-in not noted as running past scalar stores:\n%s", listing(f))
	}
}

// refusesToStream checks that Streams leaves the loop untouched.
func refusesToStream(t *testing.T, src string) {
	t.Helper()
	f := parseFunc(t, src)
	before := listing(f)
	if chk(Streams(f, 4)) || listing(f) != before {
		t.Errorf("streamed although a write reaches an element the read has yet to fetch:\n%s", listing(f))
	}
}

// TestStreamBubblePassUp: once a[j] is carried in a register, the swap
// loop reads a[j+1] first and writes a[j] (δ < 0) and a[j+1] (δ = 0,
// after the read) behind it, so the read streams.
func TestStreamBubblePassUp(t *testing.T) {
	f := parseFunc(t, strings.Replace(carriedSwapRTL, "%s", "", 1))
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("recurrence not carried:\n%s", listing(f))
	}
	streamsPastScalarStores(t, f, 1, 2) // the preheader's preload of a[0] stays
}

// TestStreamBubblePassDown: counting down, the carried element is
// a[j+1] and the loop reads a[j]; the write to a[j+1] is an element
// higher in memory but one iteration behind, so sign(step) flips δ.
func TestStreamBubblePassDown(t *testing.T) {
	f := parseFunc(t, `
rv1 := r5
rv38 := _a
L8:
l32r r0, ((rv1 << 2) + rv38)
rv42 := r0
rv46 := (rv1 + 1)
l32r r0, ((rv46 << 2) + rv38)
rv49 := r0
r31 := (rv42 > rv49)
jumpFr L11
rv62 := (rv1 + 1)
r0 := rv49
s32r r0, ((rv1 << 2) + rv38)
r0 := rv42
s32r r0, ((rv62 << 2) + rv38)
L11:
rv1 := (rv1 - 1)
r31 := (rv1 >= 0)
jumpTr L8
halt`)
	if !chk(Recurrences(f, 4)) {
		t.Fatalf("recurrence not carried:\n%s", listing(f))
	}
	streamsPastScalarStores(t, f, 1, 2)
}

// aheadRTL sums g[i] and conditionally writes g[i ± 2]; its verbs are
// the write's offset, the step and the loop test.
const aheadRTL = `
rv0 := 10
rv1 := _g
rv2 := 0
L1:
l32r r0, ((rv0 << 2) + rv1)
rv3 := r0
rv2 := (rv2 + rv3)
r31 := (rv3 > 50)
jumpFr L2
rv4 := (rv0 %s)
r0 := rv3
s32r r0, ((rv4 << 2) + rv1)
L2:
rv0 := (rv0 %s)
r31 := (rv0 %s)
jumpTr L1
r0 := rv2
halt`

// TestStreamRefusesWriteAhead: a conditional write two elements ahead
// of the read stores into an element the stream may already have
// prefetched.
func TestStreamRefusesWriteAhead(t *testing.T) {
	refusesToStream(t, fmt.Sprintf(aheadRTL, "+ 2", "+ 1", "< 90"))
}

// TestStreamRefusesWriteAheadDown: the down-counting mirror, g[i-2]
// with i--, is the same hazard.
func TestStreamRefusesWriteAheadDown(t *testing.T) {
	refusesToStream(t, fmt.Sprintf(aheadRTL, "- 2", "- 1", "> 2"))
}

// TestStreamRefusesWriteBeforeRead: a conditional write to g[i] before
// the read of g[i] in the same iteration (δ = 0, write first) must be
// seen by the read.
func TestStreamRefusesWriteBeforeRead(t *testing.T) {
	refusesToStream(t, `
rv0 := 0
rv1 := _g
rv2 := 0
L1:
rv5 := (rv0 & 1)
r31 := (rv5 != 0)
jumpFr L2
r0 := 7
s32r r0, ((rv0 << 2) + rv1)
L2:
l32r r0, ((rv0 << 2) + rv1)
rv3 := r0
rv2 := (rv2 + rv3)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
r0 := rv2
halt`)
}

// TestStreamRefusesDequeueAfterStore: the load of g[i] issues before
// the store to g[i], but its datum is dequeued after the store's is
// enqueued, so nothing proves a stream fetched g[i] before the store
// reached memory.
func TestStreamRefusesDequeueAfterStore(t *testing.T) {
	refusesToStream(t, `
rv0 := 0
rv1 := _g
rv2 := 0
L1:
l32r r0, ((rv0 << 2) + rv1)
r0 := 7
s32r r0, ((rv0 << 2) + rv1)
rv3 := r0
rv2 := (rv2 + rv3)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
r0 := rv2
halt`)
}

// regStrideRTL is a sieve-style marking loop stepping by the register
// rv9 that reads flags[k] and writes it back %s.
const regStrideRTL = `
rv0 := (rv9 + rv9)
rv1 := _flags
LP:
L1:
l8r r0, (rv0 + rv1)
rv2 := r0
%s
r31 := (rv0 < rv8)
jumpTr L1
halt`

// TestStreamRegisterStrideTrailingWrite: with a register step the read
// of flags[k] still streams when the write to flags[k] follows it in
// the same iteration.
func TestStreamRegisterStrideTrailingWrite(t *testing.T) {
	f := parseFunc(t, strings.Replace(regStrideRTL, "%s", `r0 := (rv2 + 3)
s8r r0, (rv0 + rv1)
rv0 := (rv0 + rv9)`, 1))
	streamsPastScalarStores(t, f, 0, 1)
	for _, i := range f.Code {
		if _, isImm := i.Stride.(rtl.Imm); i.Kind == rtl.KStreamIn && isImm {
			t.Errorf("stride is constant %s, want the step register:\n%s", i.Stride, listing(f))
		}
	}
}

// TestStreamRegisterStrideRefusesSteppedWrite: flags[k' - 1], written
// after the increment to k' = k + step, is flags[k] only for a step of
// one; a larger run-time step puts it ahead of the read.
func TestStreamRegisterStrideRefusesSteppedWrite(t *testing.T) {
	refusesToStream(t, strings.Replace(regStrideRTL, "%s", `rv0 := (rv0 + rv9)
rv3 := (rv0 - 1)
r0 := (rv2 + 3)
s8r r0, (rv3 + rv1)`, 1))
}

// TestStreamInfiniteReadPastTrailingWrite: "while (g[i] != 0) { g[i] =
// g[i] + r; i++; }" — both reads stream with an infinite count (the
// test's read after the increment is one element ahead of the write),
// and the write stays scalar.
func TestStreamInfiniteReadPastTrailingWrite(t *testing.T) {
	f := parseFunc(t, `
rv0 := 0
rv1 := _g
LP:
L5:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
r0 := (rv2 + rv7)
s32r r0, ((rv0 << 2) + rv1)
rv0 := (rv0 + 1)
l32r r0, ((rv0 << 2) + rv1)
rv3 := r0
r31 := (rv3 != 0)
jumpTr L5
L7:
halt`)
	if !chk(Streams(f, 4)) {
		t.Fatalf("loop not streamed:\n%s", listing(f))
	}
	text := listing(f)
	if countKind(f, rtl.KStreamIn) != 2 || strings.Count(text, "-1, 4") != 2 {
		t.Errorf("want two infinite stream-ins:\n%s", text)
	}
	if countKind(f, rtl.KLoad) != 0 || countKind(f, rtl.KStore) != 1 || countKind(f, rtl.KStreamOut) != 0 {
		t.Errorf("want every load streamed and the store scalar:\n%s", text)
	}
	if strings.Count(text, "(infinite) past scalar stores") != 2 {
		t.Errorf("stream-ins not noted as running past scalar stores:\n%s", text)
	}
	if countKind(f, rtl.KStreamStop) != 2 {
		t.Errorf("want a stop per stream at the exit:\n%s", text)
	}
}

// infRegStepRTL is "while (g[k] != 0) { %s k = k + s; }" with the step
// s in the register rv9: no loop test bounds s, so its sign is
// unknown.
const infRegStepRTL = `
rv0 := 10
rv1 := _g
LP:
L5:
%s
rv0 := (rv0 + rv9)
l32r r0, ((rv0 << 2) + rv1)
rv3 := r0
r31 := (rv3 != 0)
jumpTr L5
L7:
halt`

// TestStreamInfiniteRegisterStepWithoutWrite: the control for the
// refusals below; with no write in the loop the test's read streams
// on the register step.
func TestStreamInfiniteRegisterStepWithoutWrite(t *testing.T) {
	f := parseFunc(t, strings.Replace(infRegStepRTL, "%s", "", 1))
	if !chk(Streams(f, 4)) || countKind(f, rtl.KStreamIn) != 1 || countKind(f, rtl.KLoad) != 0 {
		t.Fatalf("want the read streamed:\n%s", listing(f))
	}
}

// TestStreamInfiniteRegisterStepRefusesWrite: g[k-1] trails the read of
// g[k + s] only for s > 0.  For s = -1 the next read is the element
// just written, which a stream would already have prefetched, so the
// read stays scalar.
func TestStreamInfiniteRegisterStepRefusesWrite(t *testing.T) {
	refusesToStream(t, fmt.Sprintf(infRegStepRTL, `rv4 := (rv0 - 1)
r0 := 0
s32r r0, ((rv4 << 2) + rv1)`))
}

// TestStreamInfiniteRegisterStepRefusesSameElement: "g[k] = g[k] - 1"
// with s = 0 writes the element every later read fetches.
func TestStreamInfiniteRegisterStepRefusesSameElement(t *testing.T) {
	refusesToStream(t, fmt.Sprintf(infRegStepRTL, `l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
r0 := (rv2 - 1)
s32r r0, ((rv0 << 2) + rv1)`))
}
