package benchmark

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"math"
	"regexp"
	"runtime/debug"
	"time"
)

// The host this benchmark was defined on is two vCPUs of a shared
// machine, and its speed drifts: the same compile or simulation runs up
// to twice as long for seconds to minutes at a time, while a dependent
// multiply loop or a pointer chase through 16 MiB keeps its time.  Over
// ten seeds, the median simulation time of a 25 s run spread by 16-36%,
// more than any bound could allow.
//
// So set-up times and the latencies of compiles, simulations and jobs
// are measured against a ruler: a fixed computation from the Go standard
// library, timed between the workload's operations.  The ruler is
// branchy, pointer-chasing code like the compiler and the simulator, so
// it slows when they do.  Its code comes with the toolchain, so no
// change to this repository can move it.
//
// Code does not slow by the same factor as the ruler: the simulator
// slows more.  Each wall time is therefore multiplied by
// (refMs / ruler)^exp, where exp is the measured code's sensitivity to
// the host: the slope of its log wall time against the log ruler time
// over runs on the defining host.  Two commits measured in the same
// state of the host compare as their wall times do, whatever exp is;
// exp only decides how much of the host's drift cancels.
//
// serve-mixed's request latency is left in wall time: it is mostly
// timer wake-ups and loopback I/O, which do not slow with the cores.

// refSource is the text the ruler reads: a small Go package.
const refSource = `package ref

type node struct {
	left, right *node
	key, val    int
}

func insert(n *node, k, v int) *node {
	if n == nil {
		return &node{key: k, val: v}
	}
	switch {
	case k < n.key:
		n.left = insert(n.left, k, v)
	case k > n.key:
		n.right = insert(n.right, k, v)
	default:
		n.val = v
	}
	return n
}

func sum(n *node) int {
	if n == nil {
		return 0
	}
	return n.val + sum(n.left) + sum(n.right)
}

type shape interface{ area() float64 }
type rect struct{ w, h float64 }
type circle struct{ r float64 }

func (r rect) area() float64   { return r.w * r.h }
func (c circle) area() float64 { return 3.14159 * c.r * c.r }

func total(ss []shape) (t float64) {
	for _, s := range ss {
		t += s.area()
	}
	return
}

func fib(n int) int {
	a, b := 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func sieve(n int) []int {
	composite := make([]bool, n+1)
	var primes []int
	for i := 2; i <= n; i++ {
		if !composite[i] {
			primes = append(primes, i)
			for j := i * i; j <= n; j += i {
				composite[j] = true
			}
		}
	}
	return primes
}

func matmul(a, b [][]float64) [][]float64 {
	n := len(a)
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}

type stack[T any] struct{ xs []T }

func (s *stack[T]) push(x T) { s.xs = append(s.xs, x) }

func (s *stack[T]) pop() (T, bool) {
	var zero T
	if len(s.xs) == 0 {
		return zero, false
	}
	x := s.xs[len(s.xs)-1]
	s.xs = s.xs[:len(s.xs)-1]
	return x, true
}

func use() int {
	var t *node
	for i := 0; i < 100; i++ {
		t = insert(t, (i*37)%101, i)
	}
	s := &stack[int]{}
	s.push(fib(20))
	x, _ := s.pop()
	m := matmul([][]float64{{1, 2}, {3, 4}}, [][]float64{{5, 6}, {7, 8}})
	return sum(t) + x + len(sieve(1000)) + int(total([]shape{rect{1, 2}, circle{3}})+m[1][1])
}
`

// refExpr is the regular expression the ruler searches refSource with:
// an assignment from a call.
var refExpr = regexp.MustCompile(`(\w+)\s*:?=\s*(\w+)\(([^()]*)\)`)

var (
	refAST  = mustParse(refSource)
	refText = []byte(refSource + refSource)
)

func mustParse(src string) *goast.File {
	f, err := parser.ParseFile(token.NewFileSet(), "ref.go", src, 0)
	if err != nil {
		panic("benchmark: the ruler's source does not parse: " + err.Error())
	}
	return f
}

// refMs is the ruler's median time on the defining host (2-vCPU Intel
// Xeon VM, Go 1.24, median of 50 runs' medians): scaled times read as
// times on that host when the ruler reads refMs.
const refMs = 2.5

// The sensitivities to the host of the code the workloads time, fitted
// over ten runs of each workload on the defining host (README.md, "The
// ruler").  Each also scales its workload's set-ups; serve-mixed's
// set-up, which is mostly compiling, takes compileExp.
const (
	compileExp = 1.0 // suite-compile
	simExp     = 1.3 // suite-sim
	jobExp     = 1.2 // jobs-repeat: a compile, a simulation and HTTP
)

// rulerEvery is how much time may pass between two measurements of the
// ruler.  Phases of the host's speed last seconds; pairing each
// operation with a measurement at most this old halved the spread of
// suite-sim's latency against pairing it with measurements 100 ms apart.
const rulerEvery = 20 * time.Millisecond

// reference is the ruler's computation: walk refSource's syntax tree and
// search its text with a regular expression, both with the standard
// library, and count what it found.  It allocates next to nothing, so
// measuring it leaves the collector, and with it the workload's memory,
// as the workload alone would; an allocating ruler (type-checking
// refSource) tracked the host as well but halved suite-sim's
// peak_rss_mb and tripled its spread.
func reference() int {
	n := 0
	for k := 0; k < 60; k++ {
		goast.Inspect(refAST, func(x goast.Node) bool {
			switch x.(type) {
			case *goast.Ident:
				n++
			case *goast.CallExpr:
				n += 2
			case *goast.BinaryExpr:
				n += 3
			}
			return true
		})
	}
	for k := 0; k < 40; k++ {
		if refExpr.Match(refText) {
			n++
		}
		n += len(refExpr.FindIndex(refText[k*50:]))
	}
	return n
}

// ruler is one workload goroutine's measure of the host's current speed.
type ruler struct {
	exp     float64   // the timed code's sensitivity to the host
	last    float64   // the latest time of the reference computation, ms
	next    time.Time // when the next measurement is due
	samples []float64 // every measurement, ms
	sink    int       // keeps the reference computation's result alive
}

// tick measures the reference computation when a measurement is due.
// Call it before each operation, on the goroutine that times it.
func (r *ruler) tick() {
	if !r.next.IsZero() && time.Now().Before(r.next) {
		return
	}
	// The ruler measures the host, not this process's garbage collector:
	// switching the collector off waits for a running cycle to finish,
	// and none starts while the reference computation runs.
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	r.sink += reference()
	r.last = ms(time.Since(start))
	debug.SetGCPercent(gc)
	r.samples = append(r.samples, r.last)
	r.next = time.Now().Add(rulerEvery)
}

// newRuler returns a ruler for code of sensitivity exp.
func newRuler(exp float64) *ruler { return &ruler{exp: exp} }

// scale converts a wall time, measured since the last tick, to time on
// the defining host.
func (r *ruler) scale(wall float64) float64 { return wall * math.Pow(refMs/r.last, r.exp) }

// unscale is the inverse of scale at the ruler's median reading: about
// what a scaled value read in wall time during the run.
func (r *ruler) unscale(v float64) float64 {
	return v * math.Pow(median(append([]float64(nil), r.samples...))/refMs, r.exp)
}
