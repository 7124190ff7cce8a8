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

// TestStreamInAfterStreamOut: an output stream fills buf from a copy
// loop, and an input stream then reads buf backwards, starting at the
// element the output stream writes last.  The output FIFO may still
// hold data when the input stream starts, so its reads must wait for
// the output stream to pass each element.  A stream restarted after an
// inner loop's stream-out (sieve's prime loop) depends on this.
func TestStreamInAfterStreamOut(t *testing.T) {
	const src = `
.entry _start
.data buf 64 align=1
.data buf2 64 align=1
.func main frame=0
    r12 := _buf
    r13 := _buf2
    r15 := 32
    sin8r r1, r13, r15, 1
    sout8r r0, r12, r15, 1
L5:
    r0 := (r1 + 1)
    jnd r0, L5
    r16 := (r12 + 31)
    sin8r r0, r16, r15, -1
    r14 := 0
L6:
    r14 := (r14 + r0)
    jnd r0, L6
    puti r14
    r2 := 0
    ret
.end
.func _start frame=0
    call main
    halt
.end
`
	for _, depth := range []int{2, 8, 16} {
		for _, ports := range []int{1, 2} {
			for _, eng := range []Engine{EngineTranslated, EngineReference} {
				t.Run(fmt.Sprintf("fifo%d/ports%d/%v", depth, ports, eng), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.FIFODepth, cfg.MemPorts, cfg.Engine = depth, ports, eng
					if _, _, out := run(t, cfg, src); out != "32" {
						t.Errorf("output %q, want 32 (each of the 32 bytes is 1)", out)
					}
				})
			}
		}
	}
}
