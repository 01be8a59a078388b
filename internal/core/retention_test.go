package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/xpath"
)

// TestPlanMemoRetentionBounded drives 50,000 distinct two-branch queries
// through one engine. Every text misses the plan cache and brings new
// subtrees to the rewrite and optimize memos, which once grew without
// bound (1.41 GB retained after 50k such queries). The memos are now
// generational with a constant cell budget, so the rewriter never holds
// more than 2·xpath.MemoBudget cells and the retained heap levels off.
func TestPlanMemoRetentionBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("50k plan builds under the race detector take minutes; the bound is single-goroutine")
	}
	const (
		queries = 50_000
		// heapBound is the most the retained heap may grow over the
		// run: both memos full in both generations plus the 512-entry
		// plan cache, with room to spare.
		heapBound = 96 << 20
	)
	e := nurseEngine(t, "1")
	r, err := e.Rewriter(0)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	maxCells, peak := 0, uint64(0)
	for i := 0; i < queries; i++ {
		q := fmt.Sprintf(`//patient[name = "x%d" or .//bill = "y%d"]/name | //dept//patient[treatment//medication = "m%d"]/wardNo`, i, i, i)
		if _, err := e.Prepare(xpath.MustParse(q)); err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		if n := r.MemoLen(); n > maxCells {
			maxCells = n
		}
		if i%10_000 == 9_999 {
			h := heap()
			if h > peak {
				peak = h
			}
			t.Logf("%d queries: %d memo cells, heap %+.1f MB", i+1, r.MemoLen(), (float64(h)-float64(base))/(1<<20))
		}
	}
	if maxCells > 2*xpath.MemoBudget {
		t.Errorf("rewriter held %d memo cells, budget allows %d", maxCells, 2*xpath.MemoBudget)
	}
	if peak > base && peak-base > heapBound {
		t.Errorf("retained heap grew by %.1f MB over %d queries, bound %d MB", float64(peak-base)/(1<<20), queries, heapBound>>20)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
