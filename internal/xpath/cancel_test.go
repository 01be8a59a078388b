package xpath_test

// Cancellation suite: evaluation under a done context must return the
// context's error promptly — even mid-descent on a large document.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// chainDoc builds a deep document: a spine of n s-elements, each also
// carrying a leaf child. Chained //* queries over it are superlinear,
// which makes evaluation slow enough to cancel mid-flight.
func chainDoc(n int) *xmltree.Document {
	root := xmltree.NewElement("s")
	cur := root
	for i := 0; i < n; i++ {
		leaf := xmltree.NewText(fmt.Sprintf("v%d", i))
		l := xmltree.NewElement("leaf")
		l.AppendChild(leaf)
		cur.AppendChild(l)
		next := xmltree.NewElement("s")
		cur.AppendChild(next)
		cur = next
	}
	return xmltree.NewDocument(root)
}

// slowQuery is expensive over chainDoc: each //* step re-walks every
// subtree of the spine.
func slowQuery(t *testing.T) xpath.Path {
	t.Helper()
	p, err := xpath.Parse("//*[//leaf]//*[//leaf]//leaf")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

// sequentialBudget asserts the evaluation took well under 100ms — the
// promptness bound from the serving layer's point of view.
func assertPrompt(t *testing.T, elapsed time.Duration) {
	t.Helper()
	if elapsed >= 100*time.Millisecond {
		t.Errorf("cancelled evaluation took %v, want well under 100ms", elapsed)
	}
}

func TestEvalDocCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(1500)
	p := slowQuery(t)

	// Sanity: uncancelled evaluation is genuinely slow (otherwise the
	// promptness assertion below proves nothing).
	start := time.Now()
	if _, err := xpath.EvalDocCtx(nil, p, doc); err != nil {
		t.Fatalf("uncancelled eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := xpath.EvalDocCtx(ctx, p, doc)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

func TestEvalDocCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := xpath.EvalDocCtx(ctx, xpath.MustParse("//leaf"), chainDoc(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled eval returned %d nodes", len(res))
	}
}

// TestEvalIndexedCtxDeadlinePrompt: the indexed evaluator honors the
// same cancellation-promptness contract as the walk evaluator — a
// 1ms deadline cuts a multi-hundred-ms evaluation off within the
// serving layer's 100ms promptness bound.
func TestEvalIndexedCtxDeadlinePrompt(t *testing.T) {
	doc := chainDoc(1500)
	p := slowQuery(t)
	idx := xpath.NewIndex(doc)

	start := time.Now()
	if _, err := xpath.EvalIndexedCtx(nil, p, idx); err != nil {
		t.Fatalf("uncancelled indexed eval: %v", err)
	}
	full := time.Since(start)
	if full < 5*time.Millisecond {
		t.Skipf("document too fast to test cancellation meaningfully (%v)", full)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := xpath.EvalIndexedCtx(ctx, p, idx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}

func TestEvalIndexedCtxAlreadyCancelled(t *testing.T) {
	doc := chainDoc(5)
	idx := xpath.NewIndex(doc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := xpath.EvalIndexedCtx(ctx, xpath.MustParse("//leaf"), idx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled indexed eval returned %d nodes", len(res))
	}
}

// TestEvalIndexedCtxCountedTicks: the counted form reports nonzero
// cooperation ticks for real work, like EvalDocCtxCounted.
func TestEvalIndexedCtxCountedTicks(t *testing.T) {
	doc := chainDoc(200)
	idx := xpath.NewIndex(doc)
	out, ticks, err := xpath.EvalIndexedCtxCounted(context.Background(), xpath.MustParse("//leaf"), idx)
	if err != nil {
		t.Fatalf("EvalIndexedCtxCounted: %v", err)
	}
	if len(out) != 200 {
		t.Fatalf("got %d leaves, want 200", len(out))
	}
	if ticks == 0 {
		t.Fatalf("ticks = 0, want nonzero nodes-visited proxy")
	}
}

// TestQualifierWalkDeadlinePromptOnDeepChain: on a compacted deep chain
// the bitset evaluator decides qualifiers with the node-local walk. The
// walk iterates subtree intervals instead of recursing on document
// depth, so a qualifier at the root of a 20,000-deep spine finds the
// deepest leaf; and because it ticks per node it examines, a
// qualifier-heavy query with nested // qualifiers, far too slow to
// finish, still stops within the promptness bound of a 1ms deadline.
func TestQualifierWalkDeadlinePromptOnDeepChain(t *testing.T) {
	doc := chainDoc(20000)
	doc.Compact()
	if !xpath.OrdinalApplicable(doc) || doc.Height() < 20000 {
		t.Fatalf("want a compacted chain of height ≥ 20000, got height %d", doc.Height())
	}
	for q, want := range map[string]int{
		`.[.//leaf = "v19999"]`:     1,
		`.[not(.//s/leaf = "v-1")]`: 1,
		`.[.//s[leaf = "v-1"]]`:     0,
	} {
		got, err := xpath.EvalDocCtx(context.Background(), xpath.MustParse(q), doc)
		if err != nil || len(got) != want {
			t.Fatalf("%s: got %d nodes, err %v; want %d", q, len(got), err, want)
		}
	}

	p := xpath.MustParse(`//s[.//s[.//leaf = "absent" or not(leaf)]]/leaf`)
	// Sanity: the query cannot finish in 50ms (otherwise the promptness
	// assertion below proves nothing).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := xpath.EvalDocCtx(ctx, p, doc)
	cancel()
	if err == nil {
		t.Skip("qualifier-heavy query finished within 50ms; too fast to test cancellation")
	}
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = xpath.EvalDocCtx(ctx, p, doc)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertPrompt(t, elapsed)
}
