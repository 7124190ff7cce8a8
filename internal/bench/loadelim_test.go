package bench

import (
	"testing"

	"wmstream/internal/rtl"
)

// TestSieveStreamsMarkingLoop: with n kept in a register across the
// prime loop, the marking loop still streams its byte stores with the
// prime as a register stride.  Using the region rule instead of
// linearize, rather than as its fallback, once left the marking loop's
// load of n in place and lost this stream.
func TestSieveStreamsMarkingLoop(t *testing.T) {
	rp, err := Compile(Sieve, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := rp.Func("main")
	for _, i := range f.Code {
		if i.Kind != rtl.KStreamOut || i.MemSize != 1 {
			continue
		}
		if _, isReg := i.Stride.(rtl.RegX); isReg {
			return
		}
	}
	t.Errorf("marking loop not streamed with a register stride:\n%s", f.Listing())
}
