package wmstream

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// linkSrc streams at O3 and runs scalar code at O0, so the concurrent
// test covers both the SCU and the plain load/store paths.
const linkSrc = `
double x[300], y[300], z[300];
int main(void) {
    int i; double s;
    for (i = 0; i < 300; i++) {
        x[i] = (i % 9) * 0.5;
        y[i] = (i % 7) * 0.25;
        z[i] = (i % 5) * 0.125;
    }
    for (i = 2; i < 300; i++)
        x[i] = z[i] * (y[i] - x[i-1]);
    s = 0.0;
    for (i = 0; i < 300; i++) s = s + x[i] * y[i];
    putd(s);
    return 0;
}`

// TestProgramLinksOnce: every run of one Program, through either run
// entry point, executes the same linked image.
func TestProgramLinksOnce(t *testing.T) {
	p, err := Compile(linkSrc, O3)
	if err != nil {
		t.Fatal(err)
	}
	if p.img != nil {
		t.Fatal("image linked before the first run")
	}
	if _, err := RunContext(context.Background(), p, DefaultMachine()); err != nil {
		t.Fatal(err)
	}
	first := p.img
	if first == nil {
		t.Fatal("run did not memoize the linked image")
	}
	if _, err := RunWithTelemetryContext(context.Background(), p, DefaultMachine(), SimOptions{}); err != nil {
		t.Fatal(err)
	}
	if p.img != first {
		t.Fatal("second run relinked the program")
	}
	if img, _ := p.image(); img != first {
		t.Fatal("image() returned a different image")
	}
}

// TestProgramConcurrentRuns: eight concurrent runs sharing one Program
// (and so one image) are bit-identical to a freshly compiled program
// run alone, at O0 and O3, through both run entry points.
func TestProgramConcurrentRuns(t *testing.T) {
	for _, level := range []int{O0, O3} {
		fresh, err := Compile(linkSrc, level)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunWithTelemetry(fresh, DefaultMachine(), SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if streamed := want.StreamElems > 0; streamed != (level == O3) {
			t.Fatalf("O%d streamed %d elements", level, want.StreamElems)
		}

		shared, err := Compile(linkSrc, level)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 8
		got := make([]SimResult, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for n := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n%2 == 0 {
					got[n].Result, errs[n] = Run(shared, DefaultMachine())
					return
				}
				got[n], errs[n] = RunWithTelemetry(shared, DefaultMachine(), SimOptions{})
			}()
		}
		wg.Wait()
		for n := range runs {
			if errs[n] != nil {
				t.Fatalf("O%d run %d: %v", level, n, errs[n])
			}
			if got[n].Result != want.Result {
				t.Errorf("O%d run %d diverged:\n got %+v\nwant %+v", level, n, got[n].Result, want.Result)
			}
			if n%2 == 1 && !reflect.DeepEqual(got[n].Units, want.Units) {
				t.Errorf("O%d run %d unit breakdown diverged", level, n)
			}
		}
	}
}
