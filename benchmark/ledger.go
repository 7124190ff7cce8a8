package benchmark

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Stamp identifies where a run was measured.
type Stamp struct {
	Host   string `json:"host"`
	CPU    string `json:"cpu"`
	NProc  int    `json:"nproc"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
	Time   string `json:"time"`
}

// NewStamp describes this host; the commit is the caller's to supply
// (the benchmark may run from a checkout that is not a repository).
func NewStamp(commit string) Stamp {
	host, _ := os.Hostname()
	cpu := runtime.GOARCH
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return Stamp{host, cpu, runtime.NumCPU(), runtime.Version(), commit, time.Now().UTC().Format(time.RFC3339)}
}

// LedgerRun is one run as a ledger records it.
type LedgerRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Stamp    Stamp  `json:"stamp"`
	Result
}

// Ledger is a set of runs, accumulated one run at a time (wmbench -out).
type Ledger struct {
	Runs []LedgerRun `json:"runs"`
}

// ReadLedger loads a ledger file.
func ReadLedger(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// AppendLedger adds a run to the ledger file, creating it if needed.
func AppendLedger(path string, r LedgerRun) error {
	l, err := ReadLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &Ledger{}, nil
	}
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, r)
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Spec is BENCHMARK.json: the metrics, their direction and, for the
// end-to-end ones, the worsening that counts as a regression.
type Spec struct {
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Compare prints, per workload and metric, each side's median and
// quartiles and the change against the metric's bound, and reports
// whether anything regressed.  An exact metric regresses when any value
// differs.  A metric whose quartile spread on either side exceeds its
// bound is unresolved, unless every new run beats every old run.
// Per-layer metrics have no bound and are reported for information.
func Compare(w io.Writer, spec *Spec, old, cur *Ledger) (regressed bool) {
	type metric struct {
		name, better string
		bound        float64 // 0: no bound
	}
	var ms []metric
	for _, m := range spec.EndToEnd {
		ms = append(ms, metric{m.Name, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		ms = append(ms, metric{m.Name, m.Better, 0})
	}
	values := func(l *Ledger, workload, name string) []float64 {
		var vs []float64
		for _, r := range l.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]LedgerRun{}, old.Runs...), cur.Runs...) {
		workloads[r.Workload] = true
	}
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-14s %-32s %24s %24s %8s %6s  %s\n", "workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range ms {
			ov, nv := values(old, wl, m.name), values(cur, wl, m.name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o1, om, o3 := quartiles(append([]float64(nil), ov...))
			n1, nm, n3 := quartiles(append([]float64(nil), nv...))
			change := (nm - om) / math.Abs(om)
			worse := change // the signed worsening, as a share of the old median
			if m.better == "higher" {
				worse = -change
			}
			spread := math.Max((o3-o1)/math.Abs(om), (n3-n1)/math.Abs(nm))
			verdict := "ok"
			switch {
			case exact(m.name):
				verdict = "same"
				if !allEqual(ov, nv) {
					verdict, regressed = "CHANGED", true
				}
			case m.bound == 0:
				verdict = "-"
			case allBetter(ov, nv, m.better):
				verdict = "better"
			case spread > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict, regressed = "REGRESSION", true
			}
			bound := "-"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.3g%%", 100*m.bound)
			}
			fmt.Fprintf(w, "%-14s %-32s %24s %24s %+7.1f%% %6s  %s\n", wl, m.name,
				fmt.Sprintf("%.4g [%.4g %.4g]", om, o1, o3), fmt.Sprintf("%.4g [%.4g %.4g]", nm, n1, n3),
				100*change, bound, verdict)
		}
	}
	return regressed
}

func allEqual(a, b []float64) bool {
	for _, vs := range [][]float64{a, b} {
		for _, v := range vs {
			if v != a[0] {
				return false
			}
		}
	}
	return true
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, cur []float64, better string) bool {
	for _, o := range old {
		for _, c := range cur {
			if (better == "higher" && c <= o) || (better == "lower" && c >= o) {
				return false
			}
		}
	}
	return true
}
