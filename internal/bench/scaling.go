package bench

import (
	"fmt"
	"strings"
)

// The compile-scaling programs grow one dimension of a function until
// the optimizer's per-loop and per-instruction work shows: a loop body
// with many invariant loads, and a function with many loops.  Each
// prints a sum whose expected value is computed here.

// WideInvariantLoop returns a program whose one loop adds n scalar
// globals to a sum on each of its 64 iterations.  LICM moves every
// load to the preheader, and each global then holds a register for the
// whole loop, so the register allocator spills most of them.
func WideInvariantLoop(n int) Program {
	var b strings.Builder
	sum := 0
	for k := 0; k < n; k++ {
		v := k%13 + 1
		sum += v
		fmt.Fprintf(&b, "int g%d = %d;\n", k, v)
	}
	b.WriteString("int n = 64;\n\nint main(void) {\n    int i, s;\n    s = 0;\n    for (i = 0; i < n; i++) {\n        s = s")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, " + g%d", k)
	}
	b.WriteString(";\n    }\n    puti(s);\n    return 0;\n}\n")
	return Program{Name: fmt.Sprintf("wide%d", n), Source: b.String(), Expect: itoa(64 * sum)}
}

// ManyLoops returns a program whose main function runs n loops one
// after another, each summing a 64-element array with its own weight.
// Every loop streams at O3.
func ManyLoops(n int) Program {
	var b strings.Builder
	b.WriteString("int a[64] = {")
	for k := 0; k < 64; k++ {
		fmt.Fprintf(&b, "%d, ", k)
	}
	b.WriteString("};\n\nint main(void) {\n    int i, s;\n    s = 0;\n")
	sum := 0
	for k := 0; k < n; k++ {
		w := k%5 + 1
		sum += w * 63 * 64 / 2
		fmt.Fprintf(&b, "    for (i = 0; i < 64; i++) s = s + %d * a[i];\n", w)
	}
	b.WriteString("    puti(s);\n    return 0;\n}\n")
	return Program{Name: fmt.Sprintf("loops%d", n), Source: b.String(), Expect: itoa(sum)}
}
