package opt

import (
	"slices"
	"strings"
	"testing"

	"wmstream/internal/rtl"
)

// partitionRTL is one Hoare partition round as the expander and the
// standard passes leave quicksort's qsort2 before Streams: a pointer
// rv0, a pivot rv17, the scans
//
//	while (a[i] < pivot) i++;   guard L3, loop L6, exit L8
//	while (a[j] > pivot) j--;   guard L8, loop L9, exit L11
//
// each rotated behind a guard that loads its first element, and the
// outer loop L3 closed at L12.  iGuard and iLoop are the first scan's
// reads after the address, guardTail runs in the first guard after its
// dequeue, iExit is where that guard jumps, and between runs after the
// first scan.
func partitionRTL(iGuard, iLoop, guardTail, iExit, between string) string {
	return `
rv0 := r2
rv1 := r3
rv3 := r4
rv4 := r5
rv17 := r6
L3:
rv24 := (rv3 << 2)
rv25 := (rv24 + rv0)
` + iGuard + guardTail + `
jumpFr ` + iExit + `
L6:
rv3 := (rv3 + 1)
rv31 := (rv3 << 2)
rv32 := (rv31 + rv0)
` + iLoop + `
jumpTr L6
L8:
` + between + `
rv37 := (rv4 << 2)
rv38 := (rv37 + rv0)
l32r r0, rv38
rv39 := r0
r31 := (rv39 > rv17)
jumpFr L11
L9:
rv4 := (rv4 - 1)
rv44 := (rv4 << 2)
rv45 := (rv44 + rv0)
l32r r0, rv45
rv46 := r0
r31 := (rv46 > rv17)
jumpTr L9
L11:
r31 := (rv3 <= rv4)
jumpFr L12
rv3 := (rv3 + 1)
rv4 := (rv4 - 1)
L12:
r31 := (rv3 <= rv4)
jumpTr L3
L5:
r2 := rv3
ret`
}

// The first scan reads a[i] alone, or a[i] + b[i] (b at rv1).
const (
	oneGuard = `l32r r0, rv25
rv26 := r0
`
	oneLoop = `l32r r0, rv32
rv33 := r0
r31 := (rv33 < rv17)`
	oneCmp   = `r31 := (rv26 < rv17)`
	twoGuard = `l32r r0, rv25
rv26 := r0
rv27 := (rv24 + rv1)
l32r r0, rv27
rv28 := r0
rv29 := (rv26 + rv28)
`
	twoLoop = `l32r r0, rv32
rv33 := r0
rv34 := (rv31 + rv1)
l32r r0, rv34
rv35 := r0
rv36 := (rv33 + rv35)
r31 := (rv36 < rv17)`
	twoCmp = `r31 := (rv29 < rv17)`
)

// streamNotes returns how many stream-ins carry each note fragment.
func streamNotes(f *rtl.Func, frag string) int {
	n := 0
	for _, i := range f.Code {
		if i.Kind == rtl.KStreamIn && strings.Contains(i.Note, frag) {
			n++
		}
	}
	return n
}

// loadsFrom reports whether a scalar load from the address register
// named addr is left.
func loadsFrom(f *rtl.Func, addr string) bool {
	return slices.ContainsFunc(f.Code, func(i *rtl.Instr) bool {
		return i.Kind == rtl.KLoad && i.Addr.String() == addr
	})
}

// foldedOnR0 reports whether the guard load from addr became a
// stream-in on r0 that stayed in the guard.
func foldedOnR0(f *rtl.Func, addr string) bool {
	return slices.ContainsFunc(f.Code, func(i *rtl.Instr) bool {
		return i.Kind == rtl.KStreamIn && i.Base.String() == addr && i.FIFO == rtl.R0 &&
			strings.HasSuffix(i.Note, "guard dequeues")
	})
}

// TestStreamsStartEarly: on quicksort's partition round, each scan's
// stream is issued from its guard's element, so the guard's compare
// dequeues it and no scalar load is left, and the second scan's stream
// starts in the outer header beside the first's, on the other FIFO.
func TestStreamsStartEarly(t *testing.T) {
	f := parseFunc(t, partitionRTL(oneGuard, oneLoop, oneCmp, "L8", ""))
	if !chk(Streams(f, 3)) {
		t.Fatalf("nothing streamed:\n%s", listing(f))
	}
	text := listing(f)
	if n := countKind(f, rtl.KLoad); n != 0 {
		t.Errorf("%d scalar loads left, want none:\n%s", n, text)
	}
	if n := streamNotes(f, "guard dequeues"); n != 2 {
		t.Errorf("%d streams issued from a guard's element, want 2:\n%s", n, text)
	}
	// The first scan's stream starts from a[i] itself, the guard's
	// address, not a[i + 1].
	hdr := f.FindLabel("L3")
	var sins []*rtl.Instr
	for _, i := range f.Code[hdr:f.FindLabel("L6")] {
		if i.Kind == rtl.KStreamIn {
			sins = append(sins, i)
		}
	}
	if len(sins) != 2 || sins[0].Base.String() != "rv25" || sins[0].FIFO != rtl.R0 {
		t.Fatalf("the outer header does not start a[i]'s stream from rv25 on r0 and a second one:\n%s", text)
	}
	early := sins[1]
	if early.FIFO != rtl.R1 || !strings.Contains(early.Note, "started early") {
		t.Errorf("the second scan's stream is not started early on r1: %v\n%s", early, text)
	}
	def := f.Code[slices.Index(f.Code, early)-1]
	if def.Src == nil || def.Src.String() != "((rv4 << 2) + rv0)" {
		t.Errorf("the early stream's base is %v, want a[j]'s address:\n%s", def, text)
	}
	// Its guard and loop dequeue r1, and its exit stops r1.
	reads := 0
	for _, i := range f.Code {
		if slices.Contains(i.Uses(nil), rtl.R1) {
			reads++
		}
	}
	if reads != 2 || !strings.Contains(text, "sstop r1") {
		t.Errorf("the early stream's dequeues (%d, want 2) or stop did not move to r1:\n%s", reads, text)
	}
	if hdr > slices.Index(f.Code, early) || slices.Index(f.Code, early) > slices.IndexFunc(f.Code, (*rtl.Instr).IsCompare) {
		t.Errorf("the early stream does not precede the outer header's compare:\n%s", text)
	}
}

// TestStreamsGuardFoldRefusals: the guard keeps its scalar load when it
// jumps somewhere other than one of the loop's exit targets (no stop
// there), or when a store or a redefinition of the address's registers
// follows the load in the guard.
func TestStreamsGuardFoldRefusals(t *testing.T) {
	for _, c := range []struct{ name, tail, exit string }{
		{"jump elsewhere", oneCmp, "L5"},
		{"store after load", "rv20 := _cnt\nr0 := rv26\ns32r r0, rv20\n" + oneCmp, "L8"},
		{"index redefined", "rv3 := (rv3 + 1)\n" + oneCmp, "L8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := parseFunc(t, partitionRTL(oneGuard, oneLoop, c.tail, c.exit, ""))
			if !chk(Streams(f, 3)) {
				t.Fatalf("nothing streamed:\n%s", listing(f))
			}
			if !loadsFrom(f, "rv25") {
				t.Errorf("the first scan's guard lost its load:\n%s", listing(f))
			}
			if n := streamNotes(f, "guard dequeues"); n != 1 {
				t.Errorf("%d guard folds, want the second scan's alone:\n%s", n, listing(f))
			}
		})
	}
}

// TestStreamsEarlyStartRefusals: the second scan's stream stays below
// the first scan when a store to a[j] or an assignment to j lies between
// them, or when the first scan takes both int FIFOs.
func TestStreamsEarlyStartRefusals(t *testing.T) {
	for _, c := range []struct{ name, guard, loop, cmp, between string }{
		{"store a[j]", oneGuard, oneLoop, oneCmp, "rv50 := (rv4 << 2)\nrv51 := (rv50 + rv0)\nr0 := rv17\ns32r r0, rv51"},
		{"j = i + 5", oneGuard, oneLoop, oneCmp, "rv4 := (rv3 + 5)"},
		{"two arrays", twoGuard, twoLoop, twoCmp, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := parseFunc(t, partitionRTL(c.guard, c.loop, c.cmp, "L8", c.between))
			if !chk(Streams(f, 3)) {
				t.Fatalf("nothing streamed:\n%s", listing(f))
			}
			text := listing(f)
			if streamNotes(f, "started early") != 0 {
				t.Errorf("a stream started early:\n%s", text)
			}
			if !foldedOnR0(f, "rv38") {
				t.Errorf("the second scan's stream is not issued from its own guard on r0:\n%s", text)
			}
		})
	}
}
