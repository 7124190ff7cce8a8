package opt

import (
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// --- step 1 in a loop that writes no memory ------------------------------------

// The fixtures read through p, a pointer parameter arriving in r2, so
// the region rule names no region for p[i].

// TestStreamPointerSumReadOnly: for (i = 0; i < n; i++) s = s + p[i];
// holds no store, so the read through p forms its own partition and
// streams on the finite path.
func TestStreamPointerSumReadOnly(t *testing.T) {
	f := parseFunc(t, `
rv1 := r2
rv3 := r3
rv0 := 0
rv5 := 0
LP:
L1:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
rv5 := (rv5 + rv2)
rv0 := (rv0 + 1)
r31 := (rv0 < rv3)
jumpTr L1
puti rv5
halt`)
	if !chk(Streams(f, 4)) {
		t.Fatalf("read-only pointer loop not streamed:\n%s", listing(f))
	}
	if countKind(f, rtl.KStreamIn) != 1 || countKind(f, rtl.KLoad) != 0 || countKind(f, rtl.KJumpNotDone) != 1 {
		t.Errorf("want one stream-in, no scalar load and a jnd:\n%s", listing(f))
	}
}

// TestStreamPointerScanReadOnly: while (p[i] < x) i++; has a
// data-dependent exit and no store, so the read streams on the
// infinite path.
func TestStreamPointerScanReadOnly(t *testing.T) {
	f := parseFunc(t, `
rv1 := r2
rv0 := r3
rv4 := r4
LP:
L1:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
rv0 := (rv0 + 1)
r31 := (rv2 < rv4)
jumpTr L1
L9:
puti rv0
halt`)
	if !chk(Streams(f, 4)) {
		t.Fatalf("read-only pointer scan not streamed:\n%s", listing(f))
	}
	if !strings.Contains(listing(f), "stream in (infinite)") || countKind(f, rtl.KLoad) != 0 {
		t.Errorf("want an infinite stream-in and no scalar load:\n%s", listing(f))
	}
}

// pointerReadStaysScalar checks that Streams leaves the read through
// p, the loop's only load, scalar.
func pointerReadStaysScalar(t *testing.T, src string) {
	t.Helper()
	f := parseFunc(t, src)
	chk(Streams(f, 4))
	if countKind(f, rtl.KStreamIn) != 0 || countKind(f, rtl.KLoad) != 1 {
		t.Errorf("read of unknown region streamed in a loop that writes memory:\n%s", listing(f))
	}
}

// TestPointerReadScalarBesideGlobalStore: g[i] = p[i] may store into
// an element p has yet to fetch (p may point into g), so the unknown
// read still poisons g's partition and stays scalar itself.
func TestPointerReadScalarBesideGlobalStore(t *testing.T) {
	pointerReadStaysScalar(t, `
rv1 := r2
rv6 := _g
rv0 := 0
LP:
L1:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
r0 := rv2
s32r r0, ((rv0 << 2) + rv6)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
}

// TestPointerReadScalarBesideStoreThroughPointer: q[i+1] = p[i] with q
// another parameter.
func TestPointerReadScalarBesideStoreThroughPointer(t *testing.T) {
	pointerReadStaysScalar(t, `
rv1 := r2
rv6 := r3
rv0 := 0
LP:
L1:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
r0 := rv2
s32r r0, (((rv0 << 2) + rv6) + 4)
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
}

// TestPointerReadScalarBesideCall: a call may write any memory.
func TestPointerReadScalarBesideCall(t *testing.T) {
	pointerReadStaysScalar(t, `
rv1 := r2
rv0 := 0
LP:
L1:
l32r r0, ((rv0 << 2) + rv1)
rv2 := r0
r2 := rv2
call f
rv0 := (rv0 + 1)
r31 := (rv0 < 100)
jumpTr L1
halt`)
}
