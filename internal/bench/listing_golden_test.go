package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"wmstream/internal/opt"
	"wmstream/internal/rtl"
)

var updateGoldens = flag.Bool("update", false, "regenerate the digest goldens in testdata")

const listingsGolden = "testdata/listings.golden"

// goldenRandomSeeds is how many RandomProgram seeds the listing golden
// covers beside the suite.
const goldenRandomSeeds = 100

// goldenLoadSeeds is how many RandomLoadProgram seeds the listing
// golden covers at O0-O3: enough to reach the restart rule, the kept
// carry, early-started streams and reads streamed past scalar stores.
const goldenLoadSeeds = 24

// goldenPrograms is the listing golden's input set: the Table II suite,
// Livermore 5 and goldenRandomSeeds random programs.
func goldenPrograms() []Program {
	progs := append(Programs(), Livermore5(2000))
	for seed := 0; seed < goldenRandomSeeds; seed++ {
		src := RandomProgram(rand.New(rand.NewSource(int64(seed))))
		progs = append(progs, Program{Name: fmt.Sprintf("fuzz%d", seed), Source: src})
	}
	return progs
}

// goldenLoadPrograms is the listing golden's set compiled at O0-O3
// only: goldenLoadSeeds RandomLoadProgram seeds, the side-exit
// programs, whose finite streams stop at a break or return, and the
// scalar-traffic program, whose streams leave FIFO0 to scalar accesses.
func goldenLoadPrograms() []Program {
	var progs []Program
	for seed := 0; seed < goldenLoadSeeds; seed++ {
		src, _ := RandomLoadProgram(rand.New(rand.NewSource(int64(seed))))
		progs = append(progs, Program{Name: fmt.Sprintf("load%d", seed), Source: src})
	}
	for _, p := range sideExitPrograms {
		progs = append(progs, Program{Name: "sideexit-" + p.name, Source: p.src})
	}
	return append(progs, Program{Name: "scalar-traffic", Source: scalarTrafficSrc})
}

// listingDigests compiles every golden program at O0-O3 and through
// the scalar pipeline with recurrence off and on, and every golden
// load program at O0-O3, and returns the SHA-256 of each debug listing
// keyed by "program/config".
func listingDigests(t *testing.T) map[string]string {
	t.Helper()
	digest := func(rp *rtl.Program) string {
		sum := sha256.Sum256([]byte(rp.StringDebug()))
		return hex.EncodeToString(sum[:])
	}
	out := map[string]string{}
	levels := func(p Program) {
		for lvl := 0; lvl <= 3; lvl++ {
			rp, err := Compile(p, lvl)
			if err != nil {
				t.Fatalf("%s O%d: %v", p.Name, lvl, err)
			}
			out[fmt.Sprintf("%s/O%d", p.Name, lvl)] = digest(rp)
		}
	}
	for _, p := range goldenLoadPrograms() {
		levels(p)
	}
	for _, p := range goldenPrograms() {
		levels(p)
		for _, rec := range []bool{false, true} {
			rp, err := CompileNone(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := opt.OptimizeScalar(rp, rec); err != nil {
				t.Fatalf("%s scalar rec=%v: %v", p.Name, rec, err)
			}
			out[fmt.Sprintf("%s/scalar-rec=%v", p.Name, rec)] = digest(rp)
		}
	}
	return out
}

// TestListingGolden pins the optimizer's output byte for byte: the
// debug listing of every golden program under every pipeline must hash
// to the value in testdata/listings.golden.  A change that is meant to
// be output-neutral (an analysis speed-up, a refactor) must leave this
// file untouched; one that changes code on purpose regenerates it with
// -update and explains the diff.
func TestListingGolden(t *testing.T) {
	checkGolden(t, listingsGolden, listingDigests(t))
}

// checkGolden compares digests keyed by name with the golden file at
// path, one "key digest" line per entry, or rewrites the file under
// -update.
func checkGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *updateGoldens {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d entries, computed %d", path, len(want), len(got))
	}
	for k, v := range got {
		if want[k] != v {
			t.Errorf("%s: got %s, golden %s", k, v, want[k])
		}
	}
}
