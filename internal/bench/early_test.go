package bench

import (
	"fmt"
	"strings"
	"testing"
)

// partitionProgram returns a program whose main fills two 64-element
// arrays, g0[k] = fill(k) and g1[k] = k * 7 % 13, runs the partition
// callee pt over g0[lo..hi] (with g1 as q) for each range, and prints
// a checksum of the results and both arrays, with that output computed
// in Go.
func partitionProgram(pt Partition, fill func(k int) int64, ranges ...[2]int) (src, want string) {
	const n = 64
	g0, g1 := make([]int64, n), make([]int64, n)
	var b strings.Builder
	b.WriteString("int g0[64];\nint g1[64];\n")
	b.WriteString(pt.Source("part"))
	b.WriteString("int main(void) {\n    int i, s;\n")
	for k := range g0 {
		g0[k], g1[k] = fill(k), int64(k*7%13)
		fmt.Fprintf(&b, "    g0[%d] = %d;\n    g1[%d] = %d;\n", k, g0[k], k, g1[k])
	}
	b.WriteString("    s = 0;\n")
	var s int64
	for _, r := range ranges {
		fmt.Fprintf(&b, "    s = s + part(g0, g1, %d, %d);\n", r[0], r[1])
		s += pt.Run(g0, g1, r[0], r[1])
	}
	b.WriteString("    for (i = 0; i < 64; i++) s = s + g0[i] * (i % 7 + 1) + g1[i];\n    puti(s);\n    return 0;\n}\n")
	for k := range g0 {
		s += g0[k]*int64(k%7+1) + g1[k]
	}
	return b.String(), fmt.Sprint(s)
}

// TestEarlyStreams runs partition rounds at O0-O3 on both engines
// against the output computed in Go.  With nothing between the scans
// the second scan's stream starts early at O3, also when every guard
// exits at once (all elements equal the pivot) and each round stops
// both streams before they deliver a second element.  A store to p[j]
// between the scans would leave the early stream a stale first element,
// j = i + 5 would start it at the wrong element, and a first scan
// reading p[i] + q[i] takes both int FIFOs: those keep the stream below
// the first scan.
func TestEarlyStreams(t *testing.T) {
	mixed := func(k int) int64 { return int64(k * 37 % 101) }
	for _, c := range []struct {
		name  string
		pt    Partition
		fill  func(int) int64
		early bool
	}{
		{"adjacent", Partition{}, mixed, true},
		{"guards exit at once", Partition{}, func(int) int64 { return 42 }, true},
		{"store p[j]", Partition{Between: 1, C: 3}, mixed, false},
		{"j = i + 5", Partition{Between: 2}, mixed, false},
		{"two arrays", Partition{Both: true}, mixed, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			src, want := partitionProgram(c.pt, c.fill, [2]int{1, 57}, [2]int{3, 30}, [2]int{20, 50})
			listings := checkLoadProgram(t, c.name, src, want)
			if got := strings.Contains(listings[3], "started early"); got != c.early {
				t.Errorf("O3 starts a stream early: %v, want %v\n%s", got, c.early, listings[3])
			}
			if !strings.Contains(listings[3], "guard dequeues") {
				t.Errorf("no guard dequeues a stream at O3:\n%s", listings[3])
			}
		})
	}
}

// TestEarlyStreamsUnderPressure: a partition round keeps 24 values
// live across both scans, more than the int pool holds, so the
// allocator spills.  Inside the first scan both int FIFOs carry
// streams once the second scan's starts early, and a spill there would
// have no FIFO for its stack traffic: the allocator must spill values
// the scans do not touch instead of failing the compilation.
func TestEarlyStreamsUnderPressure(t *testing.T) {
	const vals = 24
	var b strings.Builder
	var names []string
	for k := range vals {
		names = append(names, fmt.Sprintf("v%d", k))
	}
	fmt.Fprintf(&b, "int data[64];\nint part(int *a, int lo, int hi) {\n    int i, j, t, pivot, s, %s;\n", strings.Join(names, ", "))
	for k := range vals {
		fmt.Fprintf(&b, "    v%d = a[%d] + %d;\n", k, k, k)
	}
	b.WriteString("    pivot = a[(lo + hi) / 2];\n    i = lo;\n    j = hi;\n    s = 0;\n    while (i <= j) {\n")
	b.WriteString("        while (a[i] < pivot) i++;\n        while (a[j] > pivot) j--;\n")
	b.WriteString("        if (i <= j) {\n            t = a[i];\n            a[i] = a[j];\n            a[j] = t;\n            i++;\n            j--;\n        }\n")
	fmt.Fprintf(&b, "        s = s + i + %s;\n    }\n    return s;\n}\n", strings.Join(names, " + "))
	b.WriteString("int main(void) {\n    int k;\n    for (k = 0; k < 64; k++) data[k] = (k * 37) % 101;\n    puti(part(data, 0, 63));\n    return 0;\n}\n")

	a := make([]int64, 64)
	for k := range a {
		a[k] = int64(k * 37 % 101)
	}
	var sum int64
	for k := range vals {
		sum += a[k] + int64(k)
	}
	pivot, i, j, s := a[31], 0, 63, int64(0)
	for i <= j {
		for a[i] < pivot {
			i++
		}
		for a[j] > pivot {
			j--
		}
		if i <= j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		s += int64(i) + sum
	}
	listings := checkLoadProgram(t, "pressure", b.String(), fmt.Sprint(s))
	if !strings.Contains(listings[3], "started early") || !strings.Contains(listings[3], "s64r") {
		t.Errorf("O3 does not both spill and start a stream early:\n%s", listings[3])
	}
}
