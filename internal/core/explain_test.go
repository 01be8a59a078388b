package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func fig7Engine(t *testing.T) (*Engine, *xmltree.Document) {
	t.Helper()
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New(fig7): %v", err)
	}
	doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
		Seed: 3, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 12,
		Value: func(r *rand.Rand, label string) string { return fmt.Sprintf("%s-%d", label, r.Intn(50)) },
	})
	return e, doc
}

// TestExplainRecursive: an explain over the recursive Fig. 7 view must
// report all three phases with measured (nonzero) durations, the
// intermediate query strings, the eval mode, and the height-free rewrite
// mode (with no unfold height) — even when the plan cache is already
// warm, because the explain path re-times rewrite and optimize from
// scratch.
func TestExplainRecursive(t *testing.T) {
	e, doc := fig7Engine(t)
	const q = "//a//a/b"

	ex, err := e.ExplainStringCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatalf("ExplainStringCtx: %v", err)
	}
	if want := xpath.String(xpath.MustParse(q)); ex.Query != want {
		t.Errorf("Query = %q, want %q", ex.Query, want)
	}
	if ex.RewriteNs <= 0 || ex.OptimizeNs <= 0 || ex.EvalNs <= 0 {
		t.Errorf("phase durations not all positive: rewrite=%d optimize=%d eval=%d",
			ex.RewriteNs, ex.OptimizeNs, ex.EvalNs)
	}
	if ex.Rewritten == "" || ex.Optimized == "" {
		t.Errorf("intermediate queries missing: rewritten=%q optimized=%q", ex.Rewritten, ex.Optimized)
	}
	if ex.EvalMode != obs.ModeSequential {
		t.Errorf("EvalMode = %q, want %q", ex.EvalMode, obs.ModeSequential)
	}
	if !ex.RecursiveView {
		t.Error("fig7 view not reported recursive")
	}
	if ex.DocHeight <= 0 {
		t.Errorf("DocHeight = %d, want positive", ex.DocHeight)
	}
	if ex.RewriteMode != "height-free" {
		t.Errorf("RewriteMode = %q, want height-free", ex.RewriteMode)
	}
	if ex.NodesVisited == 0 {
		t.Error("sequential explain reported zero nodes visited")
	}
	if ex.PlanWasCached {
		t.Error("first explain claims the plan was already cached")
	}

	// The explain's result count must agree with the serving path.
	nodes, err := e.QueryStringCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatalf("QueryStringCtx: %v", err)
	}
	if ex.ResultCount != len(nodes) {
		t.Errorf("ResultCount = %d, query returned %d", ex.ResultCount, len(nodes))
	}

	// Second explain: the plan the first one re-cached is now visible.
	ex2, err := e.ExplainStringCtx(context.Background(), doc, q)
	if err != nil {
		t.Fatalf("second ExplainStringCtx: %v", err)
	}
	if !ex2.PlanWasCached {
		t.Error("second explain does not see the cached plan")
	}
	if ex2.RewriteNs <= 0 || ex2.OptimizeNs <= 0 {
		t.Errorf("warm explain skipped fresh phase timing: rewrite=%d optimize=%d", ex2.RewriteNs, ex2.OptimizeNs)
	}
	if ex2.Rewritten != ex.Rewritten || ex2.Optimized != ex.Optimized {
		t.Errorf("explain not deterministic: %q vs %q", ex2.Rewritten, ex.Rewritten)
	}
}

// TestQueryMetricsCarrier: a QueryCtx with an obs.QueryMetrics carrier
// on the context gets the per-phase accounting filled in, and a repeat
// of the same query reports a plan-cache hit with zero rewrite/optimize
// time instead of re-timed phases.
func TestQueryMetricsCarrier(t *testing.T) {
	e, doc := fig7Engine(t)
	const q = "//a/b"

	qm := &obs.QueryMetrics{CaptureQueries: true}
	ctx := obs.WithQueryMetrics(context.Background(), qm)
	if _, err := e.QueryStringCtx(ctx, doc, q); err != nil {
		t.Fatalf("QueryStringCtx: %v", err)
	}
	if qm.PlanCacheHit {
		t.Error("cold query reported a plan-cache hit")
	}
	if qm.Parse <= 0 || qm.Rewrite <= 0 || qm.Optimize <= 0 || qm.Eval <= 0 {
		t.Errorf("cold phases: parse=%v rewrite=%v optimize=%v eval=%v", qm.Parse, qm.Rewrite, qm.Optimize, qm.Eval)
	}
	if qm.EvalMode != obs.ModeSequential || qm.NodesVisited == 0 {
		t.Errorf("eval accounting: mode=%q nodes=%d", qm.EvalMode, qm.NodesVisited)
	}
	if qm.Rewritten == "" || qm.Optimized == "" {
		t.Errorf("capture requested but queries missing: %q / %q", qm.Rewritten, qm.Optimized)
	}

	qm2 := &obs.QueryMetrics{CaptureQueries: true}
	if _, err := e.QueryStringCtx(obs.WithQueryMetrics(context.Background(), qm2), doc, q); err != nil {
		t.Fatalf("warm QueryStringCtx: %v", err)
	}
	if !qm2.PlanCacheHit {
		t.Error("warm query missed the plan cache")
	}
	if qm2.Rewrite != 0 || qm2.Optimize != 0 {
		t.Errorf("plan-cache hit re-timed phases: rewrite=%v optimize=%v", qm2.Rewrite, qm2.Optimize)
	}
	if qm2.Rewritten != qm.Rewritten || qm2.Optimized != qm.Optimized {
		t.Errorf("cached plan strings differ: %q vs %q", qm2.Rewritten, qm.Rewritten)
	}
	if qm2.Parse <= 0 || qm2.Eval <= 0 {
		t.Errorf("warm parse/eval durations = %v / %v", qm2.Parse, qm2.Eval)
	}
}
