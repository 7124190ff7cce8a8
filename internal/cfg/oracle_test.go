package cfg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wmstream/internal/bench"
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// refSet is the reference solver's register set: a plain map.
type refSet map[rtl.Reg]struct{}

func (s refSet) equal(t refSet) bool {
	if len(s) != len(t) {
		return false
	}
	for r := range s {
		if _, ok := t[r]; !ok {
			return false
		}
	}
	return true
}

// refLiveness is the map-based liveness solver the bit-set one
// replaced, kept as an independent oracle: the same backward iterative
// data flow over reverse postorder, written with maps and without word
// operations.  It returns live-in and live-out per block index;
// unreachable blocks stay empty.
func refLiveness(g *cfg.Graph) (liveIn, liveOut []refSet) {
	n := len(g.Blocks)
	use := make([]refSet, n)
	def := make([]refSet, n)
	liveIn = make([]refSet, n)
	liveOut = make([]refSet, n)
	for _, b := range g.Blocks {
		u, d := refSet{}, refSet{}
		for _, i := range b.Instrs(g.F) {
			cfg.InstrUses(i, func(r rtl.Reg) {
				if _, ok := d[r]; !ok {
					u[r] = struct{}{}
				}
			})
			cfg.InstrDefs(i, func(r rtl.Reg) { d[r] = struct{}{} })
		}
		use[b.Index], def[b.Index] = u, d
		liveIn[b.Index], liveOut[b.Index] = refSet{}, refSet{}
	}
	for changed := true; changed; {
		changed = false
		order := g.ReversePostorder()
		for k := len(order) - 1; k >= 0; k-- {
			b := order[k]
			out := refSet{}
			for _, s := range b.Succs {
				for r := range liveIn[s.Index] {
					out[r] = struct{}{}
				}
			}
			in := refSet{}
			for r := range out {
				if _, killed := def[b.Index][r]; !killed {
					in[r] = struct{}{}
				}
			}
			for r := range use[b.Index] {
				in[r] = struct{}{}
			}
			if !in.equal(liveIn[b.Index]) || !out.equal(liveOut[b.Index]) {
				liveIn[b.Index], liveOut[b.Index] = in, out
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

func toRef(s cfg.RegSet) refSet {
	m := refSet{}
	s.ForEach(func(r rtl.Reg) { m[r] = struct{}{} })
	return m
}

// checkLiveness compares the bit-set solver with the reference on every
// block of f, and LiveAtEach with a backward walk of the reference.
func checkLiveness(t *testing.T, where string, f *rtl.Func) {
	t.Helper()
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	g.Liveness()
	wantIn, wantOut := refLiveness(g)
	for _, b := range g.Blocks {
		if got := toRef(b.LiveIn); !got.equal(wantIn[b.Index]) {
			t.Fatalf("%s: B%d live-in %v, reference %v", where, b.Index, b.LiveIn, wantIn[b.Index])
		}
		if got := toRef(b.LiveOut); !got.equal(wantOut[b.Index]) {
			t.Fatalf("%s: B%d live-out %v, reference %v", where, b.Index, b.LiveOut, wantOut[b.Index])
		}
		live := refSet{}
		for r := range wantOut[b.Index] {
			live[r] = struct{}{}
		}
		g.LiveAtEach(b, func(idx int, i *rtl.Instr, after cfg.RegSet) {
			if got := toRef(after); !got.equal(live) {
				t.Fatalf("%s: live after instruction %d (%v) = %v, reference %v", where, idx, i, after, live)
			}
			cfg.InstrDefs(i, func(r rtl.Reg) { delete(live, r) })
			cfg.InstrUses(i, func(r rtl.Reg) { live[r] = struct{}{} })
		})
	}
}

// TestLivenessOracle checks the bit-set liveness solver against the
// map-based reference on every function of the suite and of 60 random
// programs: on the expander's naive RTL (virtual registers) and on the
// final code of every -O level (physical registers).
func TestLivenessOracle(t *testing.T) {
	progs := append(bench.Programs(), bench.Livermore5(2000))
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		src := bench.RandomProgram(rand.New(rand.NewSource(int64(seed))))
		progs = append(progs, bench.Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src})
	}
	for _, p := range progs {
		rp, err := bench.CompileNone(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range rp.Funcs {
			checkLiveness(t, fmt.Sprintf("%s/%s expanded", p.Name, f.Name), f)
		}
		for lvl := 0; lvl <= 3; lvl++ {
			rp, err := bench.Compile(p, lvl)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rp.Funcs {
				checkLiveness(t, fmt.Sprintf("%s/%s O%d", p.Name, f.Name, lvl), f)
			}
		}
	}
}
