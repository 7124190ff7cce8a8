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
// compare-and-exchange of adjacent elements (bubble passes); and
// conditional stores, one of them to the element the next iteration
// reads.  RandomProgram reaches none of these.  Values stay far inside
// the int range, and conditions mask with & rather than divide, so the
// program means the same in C and in Go.
func RandomLoadProgram(r *rand.Rand) (src, want string) {
	size := 24 + r.Intn(40)
	var g [2][]int64
	var b strings.Builder
	fmt.Fprintf(&b, "int g0[%d];\nint g1[%d];\nint n = %d;\n", size, size, size)
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
		switch r.Intn(5) {
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
		}
	}
	fmt.Fprintf(&b, "    for (i = 0; i < n; i++) s = s + g0[i] * (i %% 7 + 1) + g1[i];\n")
	for i := 0; i < n; i++ {
		s += g[0][i]*int64(i%7+1) + g[1][i]
	}
	fmt.Fprintf(&b, "    puti(s);\n    return 0;\n}\n")
	return b.String(), fmt.Sprint(s)
}
