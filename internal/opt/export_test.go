package opt

import (
	"wmstream/internal/cfg"
	"wmstream/internal/rtl"
)

// SetAnalysisCheck installs fn as the analysisCheck hook and returns a
// function that removes it.  The O3 pipeline optimizes functions in
// parallel, so fn must be safe for concurrent use.
func SetAnalysisCheck(fn func(pass string, f *rtl.Func, g *cfg.Graph)) (restore func()) {
	analysisCheck = fn
	return func() { analysisCheck = nil }
}
