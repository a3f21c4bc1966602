package casestudies

import (
	"runtime"
	"testing"
)

// TestReparseKeepsHeapFlat parses and verifies the whole corpus over and
// over. Each pass builds fresh ASTs from the same text, and nothing derived
// from an old pass's ASTs may stay reachable once the pass is done: the
// heap after a full GC must not grow with the number of passes.
func TestReparseKeepsHeapFlat(t *testing.T) {
	studies, err := AllStudies()
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, s := range studies {
			if _, _, err := s.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm-up passes fill every cache that is bounded by the corpus
	// content (verdicts, compiled policy tables).
	for i := 0; i < 3; i++ {
		pass()
	}
	base := heap()
	const passes = 12
	for i := 0; i < passes; i++ {
		pass()
	}
	grown := int64(heap()) - int64(base)
	t.Logf("heap after %d more passes: %+d bytes", passes, grown)
	// A per-pass leak of even 64 KB would exceed this bound.
	if grown > passes*64<<10 {
		t.Fatalf("heap grew by %d bytes over %d passes of the same corpus", grown, passes)
	}
}
