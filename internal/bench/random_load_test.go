package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wmstream/internal/sim"
)

// TestRandomLoadPrograms runs RandomLoadProgram's programs at O0-O3 on
// both engines against the output the generator computed in Go.  The
// shapes reach the optimizer's region-aware load elimination and the
// streaming pass's per-read step 2a: the test also requires that some
// program carries a recurrence through a conditional store, that some
// program keeps that carry where its exchange leaves it at O3, that
// some program streams a read whose partition keeps a scalar store,
// that some callee streams its pointer parameter on the infinite path,
// that some program restarts a stream after an arm holding an inner
// writer, and that some partition callee starts a scan's stream early,
// which no other generator produces.
func TestRandomLoadPrograms(t *testing.T) {
	const seeds = 24
	carried, kept, pastStores, scans, restarts, early := 0, 0, 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		src, want := RandomLoadProgram(rand.New(rand.NewSource(int64(seed))))
		listings := checkLoadProgram(t, fmt.Sprintf("load%d", seed), src, want)
		if strings.Contains(listings[2], "recurrence value") {
			carried++
		}
		if strings.Contains(listings[3], "carry recurrence value, not stored") {
			kept++
		}
		if strings.Contains(listings[3], "past scalar stores") {
			pastStores++
		}
		if strings.Contains(listings[3], "restart stream") {
			restarts++
		}
		if strings.Contains(listings[3], "started early") {
			early++
		}
		for _, fn := range strings.Split(listings[3], ".func ")[1:] {
			if strings.HasPrefix(fn, "scan") && strings.Contains(fn, "stream in (infinite)") {
				scans++
				break
			}
		}
	}
	if scans == 0 {
		t.Errorf("no callee streamed its pointer parameter at O3: the generator no longer reaches step 1 in a store-free loop")
	}
	if carried == 0 {
		t.Errorf("no program carried a recurrence at O2: the generator no longer reaches the conditional-store path")
	}
	if kept == 0 {
		t.Errorf("no program kept a carry where its exchange left it at O3: the generator no longer reaches the kept carry")
	}
	if restarts == 0 {
		t.Errorf("no program restarted a stream at O3: the generator no longer reaches the restart rule")
	}
	if early == 0 {
		t.Errorf("no program started a stream early at O3: the generator no longer reaches the early start")
	}
	if pastStores == 0 {
		t.Errorf("no program streamed a read past scalar stores at O3: the generator no longer reaches per-read step 2a")
	}
}

// FuzzLoadPrograms runs the program RandomLoadProgram builds from each
// seed at O0-O3 on both engines against the output computed in Go.
func FuzzLoadPrograms(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src, want := RandomLoadProgram(rand.New(rand.NewSource(seed)))
		checkLoadProgram(t, fmt.Sprintf("load%d", seed), src, want)
	})
}

// checkLoadProgram compiles src at O0-O3, requires every level to print
// want on both engines, and returns each level's listing.
func checkLoadProgram(t *testing.T, name, src, want string) (listings [4]string) {
	t.Helper()
	p := Program{Name: name, Source: src}
	for lvl := range listings {
		rp, err := Compile(p, lvl)
		if err != nil {
			t.Fatalf("%s O%d: %v\n%s", p.Name, lvl, err, src)
		}
		listings[lvl] = rp.String()
		for _, eng := range []sim.Engine{sim.EngineReference, sim.EngineTranslated} {
			cfg := sim.DefaultConfig()
			cfg.Engine = eng
			_, out, err := Run(rp, cfg)
			if err != nil {
				t.Fatalf("%s O%d %s: %v\n%s", p.Name, lvl, eng, err, src)
			}
			if out != want {
				t.Fatalf("%s O%d %s: output %q, want %q\n%s", p.Name, lvl, eng, out, want, src)
			}
		}
	}
	return listings
}

// sideExitPrograms leave a streamed loop through a break or a return
// while its stream still runs.  Unstopped, the break program's next
// loop dequeued the stale prefetch of a[] as b[] (8667), and find's
// prefetch filled the FIFO that main's next scalar load needed, a
// deadlock.  An output stream cut short by a break deadlocked too.  The
// wants are each program's O0 output: 45 + 55 + 66 from a[] plus
// 3 * 4032 from b[]; find's 1 + 4 + 7 plus 3 * 4032; and 190 + 231 +
// 275 from the b[] the stores wrote.  stopped marks the programs whose
// O3 listing must stop a stream at the side exit.
var sideExitPrograms = []struct {
	name, src, want string
	stopped         bool
}{
	{"break", `
int a[64], b[64];
int n = 64;

int main(void) {
    int r, i, s;
    for (i = 0; i < n; i++) {
        a[i] = i;
        b[i] = 2 * i;
    }
    s = 0;
    for (r = 0; r < 3; r++) {
        for (i = 0; i < n; i++) {
            if (a[i] == 10 + r)
                break;
            s = s + a[i];
        }
        for (i = 0; i < n; i++)
            s = s + b[i];
    }
    puti(s);
    return 0;
}
`, "12262", true},
	{"return", `
int a[64], b[64];
int n = 64;

int find(int k) {
    int i;
    for (i = 0; i < n; i++)
        if (a[i] == k)
            return i;
    return -1;
}

int main(void) {
    int r, i, s;
    for (i = 0; i < n; i++) {
        a[i] = 3 * i;
        b[i] = 2 * i;
    }
    s = 0;
    for (r = 0; r < 3; r++) {
        s = s + find(9 * r + 3);
        for (i = 0; i < n; i++)
            s = s + b[i];
    }
    puti(s);
    return 0;
}
`, "12108", true},
	{"break-store", `
int b[64];
int n = 64;

int main(void) {
    int r, i, s;
    s = 0;
    for (r = 0; r < 3; r++) {
        for (i = 0; i < n; i++) {
            if (i == 20 + r)
                break;
            b[i] = i + r;
        }
        for (i = 0; i < n; i++)
            s = s + b[i];
    }
    puti(s);
    return 0;
}
`, "696", false},
}

// scalarTrafficSrc has loops with one or two stream candidates of a
// class and direction beside a scalar access of the same class and
// direction: a read at an index computed from loaded data, taken on
// some iterations only, and a store on some iterations only.  Step 2e
// must keep FIFO0 for that scalar traffic and stream on FIFO1 alone, so
// the second loop streams one of its two candidates and loads the
// other.  A stream on FIFO0 there would interleave with the scalar
// loads' data, or with the scalar store's.
const scalarTrafficSrc = `
int a[64], b[64], c[64], d[64];
int n = 64;

int main(void) {
    int i, s, t, u;
    for (i = 0; i < n; i++) {
        a[i] = 3 * i + 1;
        b[i] = i - 7;
    }
    s = 0;
    t = 0;
    for (i = 0; i < n; i++) {
        s = s + a[i];
        if (s % 3 == 0)
            t = t + b[s % 64];
    }
    u = 0;
    for (i = 0; i < n; i++) {
        u = u + a[i] * b[i];
        if (u % 5 == 1)
            t = t + a[(u + 640) % 64];
    }
    for (i = 0; i < n; i++) {
        d[i] = b[i] + 1;
        if (a[i] % 4 == 0)
            c[i] = i;
    }
    for (i = 0; i < n; i++)
        t = t + c[i] + d[i];
    puti(s);
    putchar(32);
    puti(t);
    putchar(32);
    puti(u);
    return 0;
}
`

// scalarTrafficWant computes scalarTrafficSrc's output in Go.
func scalarTrafficWant() string {
	const n = 64
	var a, b, c, d [n]int
	for i := range n {
		a[i], b[i] = 3*i+1, i-7
	}
	s, t, u := 0, 0, 0
	for i := range n {
		s += a[i]
		if s%3 == 0 {
			t += b[s%64]
		}
	}
	for i := range n {
		u += a[i] * b[i]
		if u%5 == 1 {
			t += a[(u+640)%64]
		}
	}
	for i := range n {
		d[i] = b[i] + 1
		if a[i]%4 == 0 {
			c[i] = i
		}
	}
	for i := range n {
		t += c[i] + d[i]
	}
	return fmt.Sprintf("%d %d %d", s, t, u)
}

// TestScalarTrafficKeepsFIFO0 runs scalarTrafficSrc at O0-O3 on both
// engines against its Go-computed output, and requires O3 to stream in
// and out on FIFO1 while scalar loads and a scalar store stay on FIFO0.
func TestScalarTrafficKeepsFIFO0(t *testing.T) {
	listings := checkLoadProgram(t, "scalar-traffic", scalarTrafficSrc, scalarTrafficWant())
	for _, want := range []string{"sin32r r1", "sout32r r1", "l32r r0, ((", "s32r r0, (("} {
		if !strings.Contains(listings[3], want) {
			t.Errorf("O3 listing has no %q:\n%s", want, listings[3])
		}
	}
}

// TestSideExitStreams runs the side-exit programs at O0-O3 on both
// engines, and requires O3 to stream the searching loops and stop their
// streams at the side exit.
func TestSideExitStreams(t *testing.T) {
	for _, p := range sideExitPrograms {
		t.Run(p.name, func(t *testing.T) {
			listings := checkLoadProgram(t, p.name, p.src, p.want)
			if p.stopped && !strings.Contains(listings[3], "stop stream at side exit") {
				t.Errorf("O3 stops no stream at the side exit:\n%s", listings[3])
			}
		})
	}
}
