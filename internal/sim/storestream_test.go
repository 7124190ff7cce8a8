package sim

import (
	"encoding/binary"
	"fmt"
	"testing"

	"wmstream/internal/rtl"
)

// TestStoreThenStream: a scalar store followed at once by an input
// stream whose first element is the stored address.  Stream reads
// bypass the store-conflict interlock, so the stream must not start
// reading until the store has reached memory; it must deliver the
// stored value, never the old one.  The shapes cover a stream on the
// store's own FIFO, on the other FIFO of the class, and beside a busy
// stream of the other class that competes for the memory port, across
// memory latencies and with one port.  Quicksort's exchange stores
// a[i] and a[j] just before its scan loops start their streams again.
func TestStoreThenStream(t *testing.T) {
	data := make([]byte, 8*4)
	for k := range 8 {
		binary.LittleEndian.PutUint32(data[k*4:], uint32(100+k))
	}
	shapes := []struct {
		name, pre, fifo string
	}{
		{"same-fifo", "", "r0"},
		{"other-fifo", "", "r1"},
		// An infinite float stream keeps the port busy while the
		// store waits to be written.
		{"busy-port", "r8 := _f\nr9 := -1\nsin64f f1, r8, r9, 8\n", "r0"},
	}
	for _, sh := range shapes {
		for _, lat := range []int{1, 6, 40} {
			for _, ports := range []int{1, 2} {
				for _, eng := range []Engine{EngineTranslated, EngineReference} {
					name := fmt.Sprintf("%s/lat%d/ports%d/%v", sh.name, lat, ports, eng)
					t.Run(name, func(t *testing.T) {
						src := `
.entry main
.data w 32 align=4 init=` + hexOf(data) + `
.data f 512 align=8
.func main
` + sh.pre + `r6 := _w
r7 := (r6 + 8)
r5 := 4
r0 := 7
s32r r0, r6
r0 := 9
s32r r0, r7
sin32r ` + sh.fifo + `, r6, r5, 4
r2 := ` + sh.fifo + `
r3 := ` + sh.fifo + `
r4 := ` + sh.fifo + `
r10 := ` + sh.fifo + `
halt
.end
`
						cfg := DefaultConfig()
						cfg.MemLatency, cfg.MemPorts, cfg.Engine = lat, ports, eng
						m, _, _ := run(t, cfg, src)
						got := []int64{int64(m.Reg(rtl.R(2))), int64(m.Reg(rtl.R(3))),
							int64(m.Reg(rtl.R(4))), int64(m.Reg(rtl.R(10)))}
						want := []int64{7, 101, 9, 103}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("stream delivered %v, want %v", got, want)
						}
					})
				}
			}
		}
	}
}
