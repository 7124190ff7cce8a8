// Public-API fuzzers.  The translated-vs-reference engine differential
// fuzzer lives with the rest of the differential harness in
// internal/bench (FuzzEngines); this file fuzzes only the exported
// surface: Compile and Assemble.
package wmstream

import (
	"testing"

	"wmstream/internal/bench"
)

// FuzzCompile feeds arbitrary text through the whole compiler at every
// optimization level.  Invalid programs must be rejected with an error;
// nothing the frontend accepts may panic any later stage (the pass
// sandbox converts optimizer faults into degradations, so a crash here
// means a frontend, expander, or required-pass bug).
func FuzzCompile(f *testing.F) {
	for _, p := range append(bench.Programs(), bench.Livermore5(32)) {
		f.Add(p.Source)
	}
	f.Add("int main(void) { return 0; }")
	f.Add("double x[8];\nint main(void) { int i; for (i = 0; i < 8; i++) x[i] = i * 0.5; putd(x[7]); return 0; }")
	f.Add("int main(void) { puti(1 +); }") // syntactically broken seed
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		for lvl := O0; lvl <= O3; lvl++ {
			p, err := Compile(src, lvl)
			if err == nil && p == nil {
				t.Fatalf("O%d: nil program without error", lvl)
			}
		}
	})
}

// FuzzAssemble feeds arbitrary bytes to the assembler: it must either
// parse and validate or return an error — never panic, and never hand
// back a program with dangling branches.
func FuzzAssemble(f *testing.F) {
	if p, err := Compile("int main(void) { puti(6 * 7); return 0; }", O3); err == nil {
		f.Add(p.Listing())
	}
	f.Add(".entry main\n.func main\nr2 := 1\nhalt\n.end\n")
	f.Add(".entry main\n.func main\njump L_missing\n.end\n")
	f.Add("bogus !!")
	f.Fuzz(func(t *testing.T, asm string) {
		if len(asm) > 1<<16 {
			t.Skip("oversized input")
		}
		p, err := Assemble(asm)
		if err == nil && p == nil {
			t.Fatal("nil program without error")
		}
	})
}
