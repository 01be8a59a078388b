package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// heavyQuery is expensive over a large hospital document: its nested
// descendant qualifiers are negated comparisons that never match, so
// no qualifier check can stop at a first witness and each one walks
// whole subtrees. Evaluation runs long enough for a millisecond
// deadline to fire mid-flight.
const heavyQuery = `//*[not(.//*[.//* = "absent"])]//*[not(.//*[.//* = "absent"])]//name`

// bigHospital generates a hospital document with high fan-out (dept*,
// patient*, staff* all repeat 28-30 times, ~20k nodes), large enough
// that heavyQuery runs for many milliseconds.
func bigHospital() *xmltree.Document {
	return xmlgen.Generate(dtds.Hospital(), xmlgen.Config{
		Seed:      11,
		MinRepeat: 28,
		MaxRepeat: 30,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", r.Intn(4))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
}

// TestQueryCtxDeadline: a 1ms-deadline query over a large document must
// return context.DeadlineExceeded well under 100ms, bump the engine's
// cancelled counter, and still leave a usable plan in the cache — the
// rewrite/optimize work completes and is cached even when evaluation is
// cut off, so a retry pays only the evaluation cost.
func TestQueryCtxDeadline(t *testing.T) {
	doc := bigHospital()

	// Sanity on a scratch engine: the uncancelled evaluation must be slow
	// enough that the deadline below genuinely interrupts it.
	warm := nurseEngine(t, "1")
	start := time.Now()
	want, err := warm.QueryString(doc, heavyQuery)
	if err != nil {
		t.Fatalf("uncancelled query: %v", err)
	}
	if full := time.Since(start); full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v for %d nodes)", full, doc.Size())
	}

	// Fresh engine: the deadline fires on the very first (cold-cache) run.
	e := nurseEngine(t, "1")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = e.QueryStringCtx(ctx, doc, heavyQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("cancelled query took %v, want well under 100ms", elapsed)
	}
	s := e.Stats()
	if s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}
	if s.PlanCache.Misses != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("plan cache after cancelled query: %+v (want 1 miss, 1 entry)", s.PlanCache)
	}

	// Retry without a deadline: served from the cached plan, same answer
	// as the scratch engine.
	got, err := e.QueryString(doc, heavyQuery)
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retry returned %d nodes, scratch engine %d", len(got), len(want))
	}
	s = e.Stats()
	if s.PlanCache.Hits != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("plan cache after retry: %+v (want the cached plan hit)", s.PlanCache)
	}
	if s.Queries != 2 || s.Cancelled != 1 {
		t.Errorf("queries=%d cancelled=%d, want 2/1", s.Queries, s.Cancelled)
	}
}

// TestQueryCtxDeadlineIndexed repeats the deadline check on an engine
// configured for indexed evaluation, the serving configuration: the
// bitset path with posting lists must surface the context error just as
// promptly.
func TestQueryCtxDeadlineIndexed(t *testing.T) {
	doc := bigHospital()
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := NewWithConfig(spec, Config{Indexed: true})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.QueryStringCtx(ctx, doc, heavyQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("cancelled indexed query took %v, want well under 100ms", elapsed)
	}
	if got, err := e.QueryString(doc, heavyQuery); err != nil || len(got) == 0 {
		t.Errorf("retry after indexed cancellation: %d nodes, err %v", len(got), err)
	}
	if s := e.Stats(); s.IndexedEvals != 2 || s.Cancelled != 1 {
		t.Errorf("indexed evals = %d, cancelled = %d; want 2 and 1", s.IndexedEvals, s.Cancelled)
	}
}

// TestQueryCtxAlreadyCancelled: a context that is already done fails the
// query immediately with context.Canceled, before touching the document.
func TestQueryCtxAlreadyCancelled(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryStringCtx(ctx, doc, "//name")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := e.Stats(); s.Cancelled != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("stats after immediate cancel: cancelled=%d entries=%d", s.Cancelled, s.PlanCache.Entries)
	}
	if _, err := e.QueryString(doc, "//name"); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Hits != 1 {
		t.Errorf("retry did not hit the plan cached by the cancelled query: %+v", s.PlanCache)
	}
}
