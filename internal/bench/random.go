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
