// Livermore: walk the paper's running example — the 5th Livermore loop
// (tri-diagonal elimination below the diagonal) — through the three
// optimization stages of Figures 4, 5 and 7, printing the code and the
// simulated cycle counts at each stage.
package main

import (
	"context"
	"fmt"
	"log"

	"wmstream"
)

const src = `
double x[5000], y[5000], z[5000];
int n = 5000;

void setup(void) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = ((i & 7) + 1) * 0.25;
        y[i] = ((i & 3) + 1) * 0.5;
        z[i] = 0.001;
    }
}

void kernel(void) {
    int i;
    for (i = 2; i < n; i++)
        x[i] = z[i] * (y[i] - x[i-1]);
}

int main(void) {
    setup();
    kernel();
    putd(x[n-1]);
    return 0;
}
`

func main() {
	stages := []struct {
		name string
		opts wmstream.Options
	}{
		{"Figure 4 (standard optimizations)", wmstream.Options{
			Standard: true, Combine: true}},
		{"Figure 5 (+ recurrence optimization)", wmstream.Options{
			Standard: true, Combine: true, Recurrence: true}},
		{"Figure 7 (+ streaming)", wmstream.Options{
			Standard: true, Combine: true, Recurrence: true,
			Stream: true, StrengthReduce: true}},
	}
	for _, st := range stages {
		cres, err := wmstream.CompileContext(context.Background(), src,
			wmstream.CompileConfig{Options: st.opts})
		if err != nil {
			log.Fatal(err)
		}
		prog := cres.Program
		res, err := wmstream.Run(prog, wmstream.DefaultMachine())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", st.name)
		fmt.Printf("cycles=%d  memory reads=%d  stream elements=%d  result=%s\n\n",
			res.Cycles, res.MemReads, res.StreamElems, res.Output)
		fmt.Print(prog.FuncListing("kernel"))
		fmt.Println()
	}
}
