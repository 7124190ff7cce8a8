package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"wmstream/internal/opt"
	"wmstream/internal/sim"
)

// TestDifferentialRandomPrograms generates random Mini-C programs and
// checks that every optimization level computes the same output — the
// strongest whole-pipeline correctness property available: any
// miscompilation by any pass shows up as a cross-level divergence.
func TestDifferentialRandomPrograms(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := RandomProgram(rand.New(rand.NewSource(int64(seed))))
			p := Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src}
			var ref string
			for lvl := 0; lvl <= 3; lvl++ {
				r, err := Measure(p, lvl)
				if err != nil {
					t.Fatalf("O%d: %v\nprogram:\n%s", lvl, err, src)
				}
				if lvl == 0 {
					ref = r.Output
				} else if r.Output != ref {
					rp, _ := Compile(p, lvl)
					t.Fatalf("O%d output %q != O0 %q\nprogram:\n%s\nlisting:\n%s",
						lvl, r.Output, ref, src, rp.String())
				}
			}
		})
	}
}

// TestDifferentialAblatedPipelines crosses individual optimizer passes
// over a fixed set of tricky programs.
func TestDifferentialAblatedPipelines(t *testing.T) {
	tricky := []string{
		// Loop-carried dependence at distance 2 with an alias-free
		// second array.
		`
double a[64], b[64];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { a[i] = i * 0.5; b[i] = i * 0.25; }
    for (i = 2; i < 64; i++) a[i] = a[i-2] + b[i];
    putd(a[63]);
    return 0;
}`,
		// Write-then-read of the same element in one iteration.
		`
int v[32];
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 32; i++) { v[i] = i * 3; s = s + v[i]; }
    puti(s);
    return 0;
}`,
		// Forward dependence (anti): must not be treated as recurrence.
		`
int v[32];
int main(void) {
    int i, s;
    for (i = 0; i < 32; i++) v[i] = i;
    for (i = 0; i < 31; i++) v[i] = v[i+1] * 2;
    s = 0;
    for (i = 0; i < 32; i++) s = s + v[i];
    puti(s);
    return 0;
}`,
		// Pointer aliasing: p aliases the global array.
		`
int g[16];
void bump(int *p, int n) {
    int i;
    for (i = 0; i < n; i++) p[i] = p[i] + 1;
}
int main(void) {
    int i, s;
    for (i = 0; i < 16; i++) g[i] = i;
    bump(g, 16);
    bump(&g[4], 8);
    s = 0;
    for (i = 0; i < 16; i++) s = s + g[i];
    puti(s);
    return 0;
}`,
		// Downward-counting loop.
		`
int v[40];
int main(void) {
    int i, s;
    for (i = 39; i >= 0; i--) v[i] = i * i;
    s = 0;
    for (i = 39; i > 0; i--) s = s + v[i] - v[i-1];
    puti(s);
    return 0;
}`,
		// Nested loops with the inner bound depending on the outer IV.
		`
int m[100];
int main(void) {
    int i, j, s;
    s = 0;
    for (i = 0; i < 10; i++)
        for (j = 0; j <= i; j++)
            m[i * 10 + j] = i + j;
    for (i = 0; i < 100; i++) s = s + m[i];
    puti(s);
    return 0;
}`,
	}
	var configs []opt.Options
	for _, std := range []bool{true} {
		for _, rec := range []bool{false, true} {
			for _, stream := range []bool{false, true} {
				for _, comb := range []bool{false, true} {
					configs = append(configs, opt.Options{
						Standard: std, Recurrence: rec, Stream: stream,
						Combine: comb, StrengthReduce: true,
						MinTrip: 4, MaxRecurrenceDegree: 4,
					})
				}
			}
		}
	}
	for tn, src := range tricky {
		p := Program{Name: fmt.Sprintf("tricky%d", tn), Source: src}
		base, err := Measure(p, 0)
		if err != nil {
			t.Fatalf("tricky%d O0: %v", tn, err)
		}
		for cn, o := range configs {
			rp, err := CompileOptions(p, o)
			if err != nil {
				t.Fatalf("tricky%d config%d: %v", tn, cn, err)
			}
			_, out, err := Run(rp, sim.DefaultConfig())
			if err != nil {
				t.Fatalf("tricky%d config%d run: %v", tn, cn, err)
			}
			if out != base.Output {
				t.Fatalf("tricky%d config%+v: output %q != %q\n%s",
					tn, o, out, base.Output, rp.String())
			}
		}
	}
}
