package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomProgram emits a random but well-defined Mini-C program: global
// int arrays, a handful of loops with random linear accesses (offsets
// kept in bounds), random arithmetic, and a final checksum.  Division
// and remainder only appear with non-zero constant divisors, so every
// program terminates and is deterministic.
func RandomProgram(r *rand.Rand) string {
	var b strings.Builder
	nArrays := 2 + r.Intn(2)
	size := 32 + r.Intn(64)
	for a := 0; a < nArrays; a++ {
		fmt.Fprintf(&b, "int g%d[%d];\n", a, size)
	}
	fmt.Fprintf(&b, "int main(void) {\n    int i, s;\n")
	// Initialize all arrays.
	for a := 0; a < nArrays; a++ {
		fmt.Fprintf(&b, "    for (i = 0; i < %d; i++) g%d[i] = i * %d + %d;\n",
			size, a, 1+r.Intn(7), r.Intn(13))
	}
	// Random loop nests.
	loops := 1 + r.Intn(4)
	for l := 0; l < loops; l++ {
		maxOff := 1 + r.Intn(3)
		lo := maxOff
		hi := size - maxOff
		dst := r.Intn(nArrays)
		expr := randomExpr(r, nArrays, maxOff, 3)
		fmt.Fprintf(&b, "    for (i = %d; i < %d; i++) g%d[i] = %s;\n", lo, hi, dst, expr)
	}
	// Checksum.
	fmt.Fprintf(&b, "    s = 0;\n")
	for a := 0; a < nArrays; a++ {
		fmt.Fprintf(&b, "    for (i = 0; i < %d; i++) s = s + g%d[i] %% 9973;\n", size, a)
	}
	fmt.Fprintf(&b, "    puti(s);\n    return 0;\n}\n")
	return b.String()
}

func randomExpr(r *rand.Rand, nArrays, maxOff, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(50)-10)
		case 1:
			return "i"
		default:
			off := r.Intn(2*maxOff+1) - maxOff
			arr := r.Intn(nArrays)
			if off < 0 {
				return fmt.Sprintf("g%d[i - %d]", arr, -off)
			}
			if off == 0 {
				return fmt.Sprintf("g%d[i]", arr)
			}
			return fmt.Sprintf("g%d[i + %d]", arr, off)
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	op := ops[r.Intn(len(ops))]
	l := randomExpr(r, nArrays, maxOff, depth-1)
	rr := randomExpr(r, nArrays, maxOff, depth-1)
	if r.Intn(4) == 0 {
		return fmt.Sprintf("(%s %s %s) %% %d", l, op, rr, 2+r.Intn(97))
	}
	return fmt.Sprintf("(%s %s %s)", l, op, rr)
}

// RandomLoadProgram emits a random well-defined Mini-C program built
// from the loop shapes the optimizer's load elimination works on, and
// returns it with the output it must print, computed here in Go.  The
// shapes: a scalar global bound n read by every loop test; inner loops
// bounded by, or strided by, the outer induction variable; conditional
// compare-and-exchange of adjacent elements (bubble passes, counting up
// or down); conditional stores, one of them to the element the next
// iteration reads; and a read beside a conditional store up to three
// elements behind or ahead of it, on loops counting either way, which
// the streaming pass must tell apart; a callee whose pointer
// parameter the call binds to a global, which it scans in a store-free
// loop with a data-dependent exit and then reads beside direct stores
// to that global; and an outer read g[i] whose conditional arm holds an
// inner loop rewriting the elements later iterations read, plus a
// store to the next element or the one behind, counting either way,
// which the restart rule streams; and an exchange that stores the old
// a[j] plus a constant into a[j+1], or whose paths join before a second
// branch, either of which must keep the recurrence's copy at the top of
// the loop; and quicksort's partition rounds (Partition), two scans
// through pointer parameters with a store to p[j] or j = i + 5 between
// them or none, whose streams start early.  RandomProgram reaches none
// of these.
// Values stay far inside the int range, and conditions mask with &
// rather than divide, so the program means the same in C and in Go.
func RandomLoadProgram(r *rand.Rand) (src, want string) {
	size := 24 + r.Intn(40)
	var g [2][]int64
	var fns, b strings.Builder // the globals and callees, then main
	fmt.Fprintf(&fns, "int g0[%d];\nint g1[%d];\nint n = %d;\n", size, size, size)
	fmt.Fprintf(&b, "int main(void) {\n    int i, j, k, t, s;\n")
	for a := range g {
		mul, add, mod := 1+r.Intn(37), r.Intn(50), 50+r.Intn(150)
		fmt.Fprintf(&b, "    for (i = 0; i < n; i++) g%d[i] = (i * %d + %d) %% %d;\n", a, mul, add, mod)
		g[a] = make([]int64, size)
		for i := range g[a] {
			g[a][i] = int64((i*mul + add) % mod)
		}
	}
	n := size
	var s int64
	fmt.Fprintf(&b, "    s = 0;\n")
	for shapes := 2 + r.Intn(4); shapes > 0; shapes-- {
		x, y := r.Intn(2), r.Intn(2)
		ga, gb := g[x], g[y]
		switch r.Intn(11) {
		case 0: // bubble passes: the inner bound shrinks with the outer IV
			passes := 1 + r.Intn(n-1)
			less := r.Intn(2) == 0
			op := ">"
			if less {
				op = "<"
			}
			fmt.Fprintf(&b, "    for (i = 0; i < %d; i++)\n        for (j = 0; j < n - 1 - i; j++)\n", passes)
			fmt.Fprintf(&b, "            if (g%d[j] %s g%d[j+1]) { t = g%d[j]; g%d[j] = g%d[j+1]; g%d[j+1] = t; }\n", x, op, x, x, x, x, x)
			for i := 0; i < passes; i++ {
				for j := 0; j < n-1-i; j++ {
					swap := ga[j] > ga[j+1]
					if less {
						swap = ga[j] < ga[j+1]
					}
					if swap {
						ga[j], ga[j+1] = ga[j+1], ga[j]
					}
				}
			}
		case 1: // sieve marking: the inner loop strides by the outer IV
			mask, bits, c := 1+r.Intn(7), r.Intn(4), r.Intn(5)
			bits &= mask
			fmt.Fprintf(&b, "    for (i = 2; i < n; i++)\n        if ((g%d[i] & %d) == %d) {\n            s = s + 1;\n", x, mask, bits)
			fmt.Fprintf(&b, "            for (k = i + i; k < n; k = k + i)\n")
			if c == 0 {
				fmt.Fprintf(&b, "                g%d[k] = 0;\n        }\n", y)
			} else {
				fmt.Fprintf(&b, "                g%d[k] = g%d[k] + %d;\n        }\n", y, y, c)
			}
			for i := 2; i < n; i++ {
				if ga[i]&int64(mask) == int64(bits) {
					s++
					for k := i + i; k < n; k += i {
						if c == 0 {
							gb[k] = 0
						} else {
							gb[k] += int64(c)
						}
					}
				}
			}
		case 2: // a conditional store on each arm
			lim, c := r.Intn(100), 1+r.Intn(9)
			fmt.Fprintf(&b, "    for (i = 0; i < n; i++)\n        if (g%d[i] > %d) g%d[i] = g%d[i] - %d; else g%d[i] = g%d[i] + %d;\n", x, lim, y, x, lim, x, x, c)
			for i := 0; i < n; i++ {
				if ga[i] > int64(lim) {
					gb[i] = ga[i] - int64(lim)
				} else {
					ga[i] += int64(c)
				}
			}
		case 3: // the inner loop is bounded by the outer IV
			fmt.Fprintf(&b, "    for (i = 1; i < n; i++)\n        for (j = 0; j < i; j++)\n            if (g%d[j] < g%d[i]) s = s + (g%d[j] & 7);\n", x, x, x)
			for i := 1; i < n; i++ {
				for j := 0; j < i; j++ {
					if ga[j] < ga[i] {
						s += ga[j] & 7
					}
				}
			}
		case 4: // a conditional store to the element the next iteration reads
			d := r.Intn(4)
			fmt.Fprintf(&b, "    for (i = 1; i < n; i++)\n        if (g%d[i-1] > g%d[i]) g%d[i] = g%d[i-1] - %d;\n", x, x, x, x, d)
			for i := 1; i < n; i++ {
				if ga[i-1] > ga[i] {
					ga[i] = ga[i-1] - int64(d)
				}
			}
		case 5: // bubble passes counting down: the carried element is g[j+1]
			passes := 1 + r.Intn(n-1)
			op := []string{">", "<"}[r.Intn(2)]
			fmt.Fprintf(&b, "    for (i = 0; i < %d; i++)\n        for (j = n - 2; j >= i; j--)\n", passes)
			fmt.Fprintf(&b, "            if (g%d[j] %s g%d[j+1]) { t = g%d[j]; g%d[j] = g%d[j+1]; g%d[j+1] = t; }\n", x, op, x, x, x, x, x)
			for i := 0; i < passes; i++ {
				for j := n - 2; j >= i; j-- {
					if op == ">" && ga[j] > ga[j+1] || op == "<" && ga[j] < ga[j+1] {
						ga[j], ga[j+1] = ga[j+1], ga[j]
					}
				}
			}
		case 6: // a read and a conditional store k elements from it
			k, down := r.Intn(7)-3, r.Intn(2) == 0
			mask, bits, c := 1+r.Intn(7), r.Intn(4), r.Intn(50)
			bits &= mask
			lo, hi := max(0, -k), n-max(0, k) // i + k stays in bounds
			if down {
				fmt.Fprintf(&b, "    for (i = %d; i >= %d; i--) {\n", hi-1, lo)
			} else {
				fmt.Fprintf(&b, "    for (i = %d; i < %d; i++) {\n", lo, hi)
			}
			idx := fmt.Sprintf("i + %d", k)
			if k < 0 {
				idx = fmt.Sprintf("i - %d", -k)
			}
			fmt.Fprintf(&b, "        s = s + g%d[i];\n        if ((g%d[i] & %d) == %d) g%d[%s] = (g%d[i] + %d) & 255;\n    }\n", x, x, mask, bits, x, idx, x, c)
			step := func(i int) {
				s += ga[i]
				if ga[i]&int64(mask) == int64(bits) {
					ga[i+k] = (ga[i] + int64(c)) & 255
				}
			}
			if down {
				for i := hi - 1; i >= lo; i-- {
					step(i)
				}
			} else {
				for i := lo; i < hi; i++ {
					step(i)
				}
			}
		case 7: // a pointer parameter bound to a global at the call
			name := fmt.Sprintf("scan%d", shapes)
			lo, lim, k, m, c := r.Intn(n-1), r.Intn(256), 1+r.Intn(3), 1+r.Intn(9), r.Intn(50)
			fmt.Fprintf(&fns, "int %s(int *p, int lo, int lim) {\n    int i, s;\n    p[n - 1] = lim;\n", name)
			// A read-only scan with a data-dependent exit, stopped by
			// the sentinel above, then a loop that reads through p and
			// writes the same global directly, k elements ahead.
			fmt.Fprintf(&fns, "    i = lo;\n    while (p[i] < lim) i++;\n    s = i;\n")
			fmt.Fprintf(&fns, "    for (i = 0; i < n - %d; i++)\n        g%d[i + %d] = (p[i] * %d + %d) & 255;\n", k, x, k, m, c)
			fmt.Fprintf(&fns, "    return s;\n}\n")
			fmt.Fprintf(&b, "    s = s + %s(g%d, %d, %d);\n", name, x, lo, lim)
			ga[n-1] = int64(lim)
			i := lo
			for ga[i] < int64(lim) {
				i++
			}
			s += int64(i)
			for i := 0; i < n-k; i++ {
				ga[i+k] = (ga[i]*int64(m) + int64(c)) & 255
			}
		case 8: // an outer read whose arm holds an inner writer
			span, down, store := 1+r.Intn(5), r.Intn(2) == 0, r.Intn(3)
			mask, bits, c, c2 := 1+r.Intn(7), r.Intn(4), r.Intn(50), r.Intn(50)
			bits &= mask
			// d steps toward the elements later iterations read: the
			// inner loop rewrites the span of them after i, and the
			// store rewrites the next one or the one behind.
			d, first, last, cmp, inc := 1, 1, n-1-span, "<=", "++"
			if down {
				d, first, last, cmp, inc = -1, n-2, span, ">=", "--"
			}
			fmt.Fprintf(&b, "    for (i = %d; i %s %d; i%s)\n", first, cmp, last, inc)
			fmt.Fprintf(&b, "        if ((g%d[i] & %d) == %d) {\n            s = s + g%d[i];\n", x, mask, bits, x)
			plus := func(v int) string { // i + v, spelled without a negative literal
				if v < 0 {
					return fmt.Sprintf("i - %d", -v)
				}
				return fmt.Sprintf("i + %d", v)
			}
			fmt.Fprintf(&b, "            for (k = %s; k %s %s; k%s) g%d[k] = (g%d[k] + %d) & 255;\n",
				plus(d), cmp, plus(d*span), inc, y, y, c)
			at := d // store 1 rewrites the next element, store 2 the one behind
			if store == 2 {
				at = -d
			}
			if store != 0 {
				fmt.Fprintf(&b, "            g%d[%s] = (g%d[i] ^ %d) & 255;\n", x, plus(at), x, c2)
			}
			fmt.Fprintf(&b, "        }\n")
			for i := first; i != last+d; i += d {
				if ga[i]&int64(mask) != int64(bits) {
					continue
				}
				s += ga[i]
				for k := i + d; k != i+d*(span+1); k += d {
					gb[k] = (gb[k] + int64(c)) & 255
				}
				if store != 0 {
					ga[i+at] = (ga[i] ^ int64(c2)) & 255
				}
			}
		case 9: // near-miss exchanges: a[j+1] takes the old carry plus c,
			// or the exact exchange's paths join before a second branch
			passes, c, join := 1+r.Intn(3), 1+r.Intn(9), r.Intn(2) == 0
			stored := fmt.Sprintf("t + %d", c)
			if join {
				c, stored = 0, "t"
			}
			fmt.Fprintf(&b, "    for (i = 0; i < %d; i++)\n        for (j = 0; j < n - 1; j++) {\n", passes)
			fmt.Fprintf(&b, "            if (g%d[j] > g%d[j+1]) { t = g%d[j]; g%d[j] = g%d[j+1]; g%d[j+1] = %s; }\n", x, x, x, x, x, x, stored)
			if join {
				fmt.Fprintf(&b, "            if ((j & 3) == 0) s = s + 1;\n")
			}
			fmt.Fprintf(&b, "        }\n")
			for i := 0; i < passes; i++ {
				for j := 0; j < n-1; j++ {
					if ga[j] > ga[j+1] {
						ga[j], ga[j+1] = ga[j+1], ga[j]+int64(c)
					}
					if join && j&3 == 0 {
						s++
					}
				}
			}
		case 10: // Hoare partition rounds through pointer parameters
			// Half the rounds leave the scans adjacent, the case whose
			// second stream starts early.
			pt := Partition{Between: max(0, r.Intn(4)-1), C: 1 + int64(r.Intn(5)), Both: r.Intn(4) == 0}
			if pt.Both && x == y {
				y, gb = 1-x, g[1-x]
			}
			lo := 1 + r.Intn(n/2)
			hi := lo + r.Intn(n-7-lo)
			name := fmt.Sprintf("part%d", shapes)
			fns.WriteString(pt.Source(name))
			fmt.Fprintf(&b, "    s = s + %s(g%d, g%d, %d, %d);\n", name, x, y, lo, hi)
			s += pt.Run(ga, gb, lo, hi)
		}
	}
	fmt.Fprintf(&b, "    for (i = 0; i < n; i++) s = s + g0[i] * (i %% 7 + 1) + g1[i];\n")
	for i := 0; i < n; i++ {
		s += g[0][i]*int64(i%7+1) + g[1][i]
	}
	fmt.Fprintf(&b, "    puti(s);\n    return 0;\n}\n")
	return fns.String() + b.String(), fmt.Sprint(s)
}

// Partition describes a callee that runs quicksort's Hoare partition
// rounds over p[lo..hi] through pointer parameters:
//
//	while (i <= j) {
//	    while (p[i] < pivot) i++;      (p[i] + q[i] < pivot with Both)
//	    between
//	    while (p[j] > pivot) j--;
//	    if (i <= j) { exchange p[i] and p[j]; i++; j--; }
//	}
//
// between is nothing, a store p[j] = p[j] - C, or j = i + 5.  The
// pivot is p[(lo + hi) / 2].  Before the rounds the callee fences the
// range: p[lo - 1] = pivot - 1 stops the down scan, p[hi + 1..hi + 6]
// = pivot + 1 stops the up scan and lets a down scan started as far as
// i + 5 pass, and with Both q[hi + 1] = 0 keeps the sum at least the
// pivot there.  So the scans stay inside p[lo - 1..hi + 6], each round
// that goes on moves i up, and the callee returns the sum of 3i + j
// after each round.  p and q must hold at least hi + 7 elements, and
// with Both they must be different arrays.
type Partition struct {
	Between int   // 0: nothing, 1: the store to p[j], 2: j = i + 5
	C       int64 // the store's decrement
	Both    bool  // the up scan also reads q[i]
}

// Source returns the callee, named name, in Mini-C.
func (pt Partition) Source(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "int %s(int *p, int *q, int lo, int hi) {\n    int i, j, t, pivot, s;\n", name)
	fmt.Fprintf(&b, "    pivot = p[(lo + hi) / 2];\n")
	if pt.Both {
		fmt.Fprintf(&b, "    q[hi + 1] = 0;\n")
	}
	fmt.Fprintf(&b, "    p[lo - 1] = pivot - 1;\n")
	fmt.Fprintf(&b, "    for (i = hi + 1; i <= hi + 6; i++) p[i] = pivot + 1;\n")
	fmt.Fprintf(&b, "    i = lo;\n    j = hi;\n    s = 0;\n    while (i <= j) {\n")
	if pt.Both {
		fmt.Fprintf(&b, "        while (p[i] + q[i] < pivot) i++;\n")
	} else {
		fmt.Fprintf(&b, "        while (p[i] < pivot) i++;\n")
	}
	switch pt.Between {
	case 1:
		fmt.Fprintf(&b, "        p[j] = p[j] - %d;\n", pt.C)
	case 2:
		fmt.Fprintf(&b, "        j = i + 5;\n")
	}
	fmt.Fprintf(&b, "        while (p[j] > pivot) j--;\n")
	fmt.Fprintf(&b, "        if (i <= j) {\n            t = p[i];\n            p[i] = p[j];\n            p[j] = t;\n            i++;\n            j--;\n        }\n")
	fmt.Fprintf(&b, "        s = s + i * 3 + j;\n    }\n    return s;\n}\n")
	return b.String()
}

// Run does in Go what the callee does to p and q, and returns its
// result.
func (pt Partition) Run(p, q []int64, lo, hi int) int64 {
	pivot := p[(lo+hi)/2]
	if pt.Both {
		q[hi+1] = 0
	}
	p[lo-1] = pivot - 1
	for k := hi + 1; k <= hi+6; k++ {
		p[k] = pivot + 1
	}
	i, j, s := lo, hi, int64(0)
	for i <= j {
		for p[i] < pivot && !pt.Both || pt.Both && p[i]+q[i] < pivot {
			i++
		}
		switch pt.Between {
		case 1:
			p[j] -= pt.C
		case 2:
			j = i + 5
		}
		for p[j] > pivot {
			j--
		}
		if i <= j {
			p[i], p[j] = p[j], p[i]
			i++
			j--
		}
		s += int64(3*i + j)
	}
	return s
}

// RandomCallProgram emits a random well-defined Mini-C program whose
// main keeps more values live across calls, inside loops, than the
// register pools hold, and returns it with the output it must print,
// computed here in Go.  The callee clobber keeps more int and double
// accumulators live than either pool holds, so every pool register is
// overwritten by each call.  Between two calls main redefines some of
// its values, in straight-line code and in call-free inner loops, and
// leaves others untouched until the end.  Values stay far inside the
// int range and every double holds a small integer, so each operation
// is exact and the program means the same in C and in Go.
func RandomCallProgram(r *rand.Rand) (src, want string) {
	const nA, nD = 20, 22
	var b strings.Builder
	list := func(prefix string, n int) string {
		names := make([]string, n)
		for k := range names {
			names[k] = fmt.Sprintf("%s%d", prefix, k)
		}
		return strings.Join(names, ", ")
	}
	sum := func(prefix string, n int) string { return strings.ReplaceAll(list(prefix, n), ", ", " + ") }

	// The callee.
	var ac, am [nA]int64
	var dc [nD]int64
	fmt.Fprintf(&b, "int clobber(int x, double y) {\n    int k, s, t, %s;\n    double u, %s;\n", list("a", nA), list("d", nD))
	for k := 0; k < nA; k++ {
		ac[k], am[k] = int64(r.Intn(100)), int64(1+r.Intn(9))
		fmt.Fprintf(&b, "    a%d = x + %d;\n", k, ac[k])
	}
	for k := 0; k < nD; k++ {
		dc[k] = int64(r.Intn(20))
		fmt.Fprintf(&b, "    d%d = y + %d;\n", k, dc[k])
	}
	fmt.Fprintf(&b, "    for (k = 0; k < (x & 3) + 1; k++) {\n")
	for k := 0; k < nA; k++ {
		fmt.Fprintf(&b, "        a%d = (a%d * %d + a%d) %% 1009;\n", k, k, am[k], (k+1)%nA)
	}
	for k := 0; k < nD; k++ {
		fmt.Fprintf(&b, "        d%d = d%d + d%d;\n", k, k, (k+1)%nD)
	}
	fmt.Fprintf(&b, "    }\n    s = %s;\n    u = %s;\n    t = u;\n    return (s + t) %% 100003;\n}\n", sum("a", nA), sum("d", nD))
	clobber := func(x int64, y float64) int64 {
		var a [nA]int64
		var d [nD]float64
		for k := range a {
			a[k] = x + ac[k]
		}
		for k := range d {
			d[k] = y + float64(dc[k])
		}
		for k := int64(0); k < x&3+1; k++ {
			for j := range a {
				a[j] = (a[j]*am[j] + a[(j+1)%nA]) % 1009
			}
			for j := range d {
				d[j] += d[(j+1)%nD]
			}
		}
		var s int64
		for _, v := range a {
			s += v
		}
		var u float64
		for _, v := range d {
			u += v
		}
		return (s + int64(u)) % 100003
	}

	// The caller starts from a global, so that no value folds to a
	// constant.
	nV, nW := 19+r.Intn(6), 2+r.Intn(3)
	v, w := make([]int64, nV), make([]float64, nW)
	seed := int64(r.Intn(1000))
	fmt.Fprintf(&b, "int seed = %d;\nint main(void) {\n    int i, j, s, t, %s;\n    double %s;\n", seed, list("v", nV), list("w", nW))
	for k := range v {
		m, c := int64(1+r.Intn(50)), int64(r.Intn(1009))
		v[k] = (seed*m + c) % 1009
		fmt.Fprintf(&b, "    v%d = (seed * %d + %d) %% 1009;\n", k, m, c)
	}
	for k := range w {
		c := int64(r.Intn(50))
		w[k] = float64(seed%50 + c)
		fmt.Fprintf(&b, "    w%d = seed %% 50 + %d;\n", k, c)
	}
	trips := 2 + r.Intn(4)
	// An update redefines v[a] (kind 0: in a call-free inner loop of j
	// trips that also reads v[reads...] and bumps w[c]; kind 1: in
	// straight-line code) or w[c] (kind 2).
	type update struct {
		kind, a, c, j int
		reads         []int
	}
	type call struct {
		before []update
		p, q   int
	}
	calls := make([]call, 2+r.Intn(2))
	fmt.Fprintf(&b, "    s = 0;\n    for (i = 0; i < %d; i++) {\n", trips)
	for n := range calls {
		c := &calls[n]
		for k := 1 + r.Intn(4); k > 0; k-- {
			u := update{kind: r.Intn(3), a: r.Intn(nV), c: r.Intn(nW), j: 2 + r.Intn(3)}
			for k := 1 + r.Intn(8); k > 0; k-- {
				u.reads = append(u.reads, r.Intn(nV))
			}
			c.before = append(c.before, u)
		}
		c.p, c.q = r.Intn(nV), r.Intn(nW)
		for _, u := range c.before {
			switch u.kind {
			case 0:
				fmt.Fprintf(&b, "        for (j = 0; j < %d; j++) {\n            v%d = (v%d + j", u.j, u.a, u.a)
				for _, x := range u.reads {
					fmt.Fprintf(&b, " + v%d", x)
				}
				fmt.Fprintf(&b, ") %% 1009;\n            w%d = w%d + v%d %% 5;\n        }\n", u.c, u.c, u.a)
			case 1:
				fmt.Fprintf(&b, "        v%d = (v%d * 3 + i) %% 1009;\n", u.a, u.a)
			case 2:
				fmt.Fprintf(&b, "        w%d = w%d + i %% 3;\n", u.c, u.c)
			}
		}
		fmt.Fprintf(&b, "        s = (s + clobber(v%d + i, w%d)) %% 100003;\n", c.p, c.q)
	}
	fmt.Fprintf(&b, "    }\n    s = s + %s;\n    t = %s;\n    puti(s);\n    putchar(32);\n    puti(t);\n    return 0;\n}\n", sum("v", nV), sum("w", nW))
	var s int64
	for i := int64(0); i < int64(trips); i++ {
		for _, c := range calls {
			for _, u := range c.before {
				switch u.kind {
				case 0:
					for j := int64(0); j < int64(u.j); j++ {
						x := v[u.a] + j
						for _, k := range u.reads {
							x += v[k]
						}
						v[u.a] = x % 1009
						w[u.c] += float64(v[u.a] % 5)
					}
				case 1:
					v[u.a] = (v[u.a]*3 + i) % 1009
				case 2:
					w[u.c] += float64(i % 3)
				}
			}
			s = (s + clobber(v[c.p]+i, w[c.q])) % 100003
		}
	}
	for _, x := range v {
		s += x
	}
	var t float64
	for _, x := range w {
		t += x
	}
	return b.String(), fmt.Sprintf("%d %d", s, int64(t))
}
