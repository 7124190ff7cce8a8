package benchmark

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
)

// expectedJSON holds each suite program's output, identical at O0-O3 and
// on the reference and default engines (TestExpectedFile regenerates
// and checks it).
//
//go:embed testdata/expected.json
var expectedJSON []byte

// loadExpected decodes the embedded reference outputs.
func loadExpected() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return m, nil
}

// input is one unit of work a workload sends: a program, an optimization
// level, a machine, the endpoint it goes to, and the output the program
// must print.
type input struct {
	name     string
	src      string
	level    int
	machine  machineSpec
	endpoint string // "compile", "run" or "jobs"
	expect   string
}

// suiteInputs pairs every suite program with every level.
func suiteInputs(expected map[string]string, levels []int, endpoint string) []input {
	var out []input
	for _, s := range suite() {
		for _, l := range levels {
			out = append(out, input{name: s.name, src: s.text, level: l, endpoint: endpoint, expect: expected[s.name]})
		}
	}
	return out
}

// jobPrograms are the programs jobs-repeat draws from, each at O3 on
// the default machine and with a slower memory.
var jobPrograms = []string{"dot-product", "iir", "whetstone", "dhrystone", "quicksort", "livermore5"}

// jobInputs are jobs-repeat's twelve distinct jobs.
func jobInputs(expected map[string]string) []input {
	texts := map[string]string{}
	for _, s := range suite() {
		texts[s.name] = s.text
	}
	var out []input
	for _, name := range jobPrograms {
		for _, m := range []machineSpec{{}, {MemLatency: 8}} {
			out = append(out, input{name: name, src: texts[name], level: 3, machine: m, endpoint: "jobs", expect: expected[name]})
		}
	}
	return out
}

// A template is a small Mini-C program family whose output the
// generator computes in Go, so every serve-mixed source, fixed or
// unique, has an oracle independent of the compiler and simulator.  c
// is a constant folded into the text: the fixed programs use small
// values, the unique ones fold in the seed.  Arrays hold multiples of
// 1/8 and sums stay far below 2^53, so the doubles are exact and the
// oracle cannot disagree with the simulator by rounding.
type template struct {
	name string
	src  func(n, k, c int) string
	out  func(n, k, c int) string
}

var templates = []template{
	{"sum", func(n, k, c int) string {
		return fmt.Sprintf(`int main(void) { int i, s; s = %d; for (i = 0; i < %d; i++) s = s + i * %d; puti(s); return 0; }`, c, n, k)
	}, func(n, k, c int) string {
		return fmt.Sprint(c + k*n*(n-1)/2)
	}},
	{"fsum", func(n, k, c int) string {
		return fmt.Sprintf(`double a[%d];
int main(void) {
    int i; double s;
    for (i = 0; i < %d; i++) a[i] = i * 0.5;
    s = %d.0;
    for (i = 0; i < %d; i++) s = s + a[i] * %d;
    putd(s);
    return 0;
}`, n, n, c, n, k)
	}, func(n, k, c int) string {
		s := float64(c)
		for i := 0; i < n; i++ {
			s += float64(float64(i) * 0.5 * float64(k))
		}
		return fmt.Sprintf("%g", s)
	}},
	{"diff", func(n, k, c int) string {
		return fmt.Sprintf(`int v[%d];
int main(void) {
    int i, s;
    for (i = 0; i < %d; i++) v[i] = i * %d;
    s = %d;
    for (i = 2; i < %d; i++) s = s + v[i] - v[i-2];
    puti(s);
    return 0;
}`, n, n, k, c, n)
	}, func(n, k, c int) string {
		s := c
		for i := 2; i < n; i++ {
			s += i*k - (i-2)*k
		}
		return fmt.Sprint(s)
	}},
	{"dot", func(n, k, c int) string {
		return fmt.Sprintf(`double x[%d], y[%d];
int main(void) {
    int i; double s;
    for (i = 0; i < %d; i++) { x[i] = (i & 7) * 0.25; y[i] = (i & %d) * 0.5; }
    s = %d.0;
    for (i = 0; i < %d; i++) s = s + x[i] * y[i];
    putd(s);
    return 0;
}`, n, n, n, k, c, n)
	}, func(n, k, c int) string {
		s := float64(c)
		for i := 0; i < n; i++ {
			x, y := float64(i&7)*0.25, float64(i&k)*0.5
			s += float64(x * y)
		}
		return fmt.Sprintf("%g", s)
	}},
}

// hitParams are the eight fixed serve-mixed programs: two
// parameterizations of each template.
var hitParams = []struct{ t, n, k, c int }{
	{0, 100, 3, 0}, {0, 80, 7, 11},
	{1, 64, 1, 0}, {1, 48, 3, 5},
	{2, 128, 3, 0}, {2, 96, 5, 1},
	{3, 96, 3, 0}, {3, 72, 7, 2},
}

// hitPrograms are the eight fixed programs, without level or endpoint.
var hitPrograms = func() []input {
	var out []input
	for i, h := range hitParams {
		t := templates[h.t]
		out = append(out, input{name: fmt.Sprintf("hit%d", i), src: t.src(h.n, h.k, h.c), expect: t.out(h.n, h.k, h.c)})
	}
	return out
}()

// hitInputs are the eight fixed programs at one level and endpoint.
func hitInputs(level int, endpoint string) []input {
	out := append([]input(nil), hitPrograms...)
	for i := range out {
		out[i].level, out[i].endpoint = level, endpoint
	}
	return out
}

// mixGen draws serve-mixed requests: 70% from the eight fixed programs
// and 30% unique sources with the seed folded into the text, half to
// /compile and half to /run, levels uniform over O0-O3, and a quarter
// of the /run hits on a non-default machine.
type mixGen struct {
	rng  *rand.Rand
	base int // seed-derived constant offset of the unique sources
}

func newMixGen(seed int64, stream int) *mixGen {
	// Unique constants stay below 2^31 (Mini-C ints are 32-bit in
	// memory) and clear of the fixed programs' constants.
	base := int(uint64(seed)%10000)*100000 + 1000
	return &mixGen{rng: rand.New(rand.NewSource(seed*7919 + int64(stream))), base: base}
}

// next draws request n of the stream; n makes unique sources distinct.
func (g *mixGen) next(n int) input {
	endpoint := "compile"
	if g.rng.Intn(2) == 0 {
		endpoint = "run"
	}
	level := g.rng.Intn(4)
	if g.rng.Float64() >= 0.7 {
		h := hitParams[2*(n%len(templates))]
		t := templates[h.t]
		c := g.base + n
		return input{name: "unique-" + t.name, src: t.src(h.n, h.k, c), level: level, endpoint: endpoint, expect: t.out(h.n, h.k, c)}
	}
	in := hitPrograms[g.rng.Intn(len(hitPrograms))]
	in.level, in.endpoint = level, endpoint
	if endpoint == "run" && g.rng.Intn(4) == 0 {
		if g.rng.Intn(2) == 0 {
			in.machine = machineSpec{MemLatency: 8}
		} else {
			in.machine = machineSpec{FIFODepth: 4}
		}
	}
	return in
}
