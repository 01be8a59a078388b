package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fig7Doc builds a document for the recursive Fig. 7 DTD with the given
// nesting depth: a(b, c(a(b, c(...)))).
func fig7Doc(depth int) *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	var rec func(d int) *xmltree.Node
	rec = func(d int) *xmltree.Node {
		if d == 0 {
			return e("a", tx("b", "leaf"), e("c"))
		}
		return e("a", tx("b", fmt.Sprintf("lvl-%d", d)), e("c", rec(d-1)))
	}
	return xmltree.NewDocument(rec(depth))
}

// TestPlanCacheHits: the second identical query must be served from the
// plan cache — the rewrite+optimize stages run once.
func TestPlanCacheHits(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(3, 3)
	first, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	s := e.Stats()
	if s.PlanCache.Hits != 0 || s.PlanCache.Misses != 1 {
		t.Fatalf("after first query: %+v", s.PlanCache)
	}
	second, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	s = e.Stats()
	if s.PlanCache.Hits != 1 || s.PlanCache.Misses != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("after second query: %+v", s.PlanCache)
	}
	if s.Queries != 2 {
		t.Errorf("queries = %d", s.Queries)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached plan changed the answer")
	}
	// Equivalent text (parse→print canonicalization) shares the entry.
	if _, err := e.QueryString(doc, "  //patient/name "); err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 || s.PlanCache.Hits != 2 {
		t.Errorf("canonicalization missed: %+v", s.PlanCache)
	}
}

// TestPlanCacheHeightFreeCollapsesClasses: a recursive view keeps one
// plan-cache entry per query text across documents of different heights.
func TestPlanCacheHeightFreeCollapsesClasses(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d3, d5 := fig7Doc(1), fig7Doc(2)
	for _, doc := range []*xmltree.Document{d3, d5, d3, d5} {
		if _, err := e.QueryString(doc, "//b"); err != nil {
			t.Fatalf("QueryString: %v", err)
		}
	}
	s := e.Stats()
	if s.PlanCache.Entries != 1 {
		t.Errorf("entries = %d, want 1 (height-free shares the plan)", s.PlanCache.Entries)
	}
	if s.PlanCache.Hits != 3 || s.PlanCache.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", s.PlanCache.Hits, s.PlanCache.Misses)
	}
	got, err := e.QueryString(d5, "//b")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(got) != 3 {
		t.Errorf("//b over depth-2 doc = %d nodes, want 3", len(got))
	}
}

// TestWarmPlanHitAllocs: a warm plan-cache hit allocates no more than
// the variable check and the canonical print it must do anyway — the
// cache key is the printed query itself, so keying costs nothing extra.
func TestWarmPlanHitAllocs(t *testing.T) {
	e := nurseEngine(t, "1")
	p := xpath.MustParse("//patient/name")
	ctx := context.Background()
	if _, err := e.prepared(ctx, p); err != nil {
		t.Fatalf("prepared: %v", err)
	}
	var sinkVars []string
	var sinkText string
	hit := testing.AllocsPerRun(100, func() {
		if _, err := e.prepared(ctx, p); err != nil {
			t.Fatal(err)
		}
	})
	vars := testing.AllocsPerRun(100, func() { sinkVars = xpath.Vars(p) })
	text := testing.AllocsPerRun(100, func() { sinkText = xpath.String(p) })
	_, _ = sinkVars, sinkText
	if hit > vars+text {
		t.Errorf("warm plan hit: %.0f allocs, want ≤ Vars %.0f + String %.0f", hit, vars, text)
	}
	if s := e.Stats(); s.PlanCache.Misses != 1 || s.PlanCache.Entries != 1 {
		t.Errorf("warm runs missed the plan cache: %+v", s.PlanCache)
	}
}

// TestQueryUnboundVarReturnsError: the satellite bugfix — an unbound
// $variable reachable from QueryString must error, not panic.
func TestQueryUnboundVarReturnsError(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(2, 2)
	res, err := e.QueryString(doc, `//patient[wardNo = $evil]/name`)
	if err == nil {
		t.Fatalf("unbound variable accepted, returned %d nodes", len(res))
	}
	if !strings.Contains(err.Error(), "evil") {
		t.Errorf("error does not name the variable: %v", err)
	}
	// The engine must stay usable afterwards.
	if _, err := e.QueryString(doc, "//patient/name"); err != nil {
		t.Errorf("engine broken after bad query: %v", err)
	}
}

// TestConcurrentQueriesFlatAndRecursive: satellite coverage — parallel
// Query/Prepare from many goroutines under -race, on both view shapes.
func TestConcurrentQueriesFlatAndRecursive(t *testing.T) {
	flat := nurseEngine(t, "1")
	flatDoc := dtds.GenerateHospital(7, 4)
	// The recursive engine shares one height-free plan across documents
	// of three heights.
	rec, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	recDocs := []*xmltree.Document{fig7Doc(1), fig7Doc(2), fig7Doc(3)}
	queries := []string{"//patient/name", "//bill", "dept/staffInfo/staff/*"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := flat.QueryString(flatDoc, q); err != nil {
					t.Errorf("flat %q: %v", q, err)
					return
				}
				if _, err := flat.PrepareString(q); err != nil {
					t.Errorf("prepare %q: %v", q, err)
					return
				}
				if _, err := rec.QueryString(recDocs[(g+i)%len(recDocs)], "//b"); err != nil {
					t.Errorf("recursive //b: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	fs, rs := flat.Stats(), rec.Stats()
	if fs.PlanCache.Hits == 0 || rs.PlanCache.Hits == 0 {
		t.Errorf("no plan-cache hits under concurrency: flat %+v recursive %+v", fs.PlanCache, rs.PlanCache)
	}
	if rs.PlanCache.Entries != 1 {
		t.Errorf("recursive engine cached %d plans for //b, want 1", rs.PlanCache.Entries)
	}
}

// TestPrepareServedFromPlanCache: Prepare and Query share the cache.
func TestPrepareServedFromPlanCache(t *testing.T) {
	e := nurseEngine(t, "1")
	p1, err := e.PrepareString("//patient/name")
	if err != nil {
		t.Fatalf("PrepareString: %v", err)
	}
	p2, err := e.PrepareString("//patient/name")
	if err != nil {
		t.Fatalf("PrepareString: %v", err)
	}
	if p1 != p2 {
		t.Errorf("identical prepares returned distinct plans")
	}
	doc := dtds.GenerateHospital(5, 3)
	if _, err := e.QueryString(doc, "//patient/name"); err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if s := e.Stats(); s.PlanCache.Entries != 1 {
		t.Errorf("Query built a second plan for a prepared query: %+v", s.PlanCache)
	}
}

// TestIndexedEngineMatchesSequential: the tentpole serving contract —
// an engine with the structural index enabled answers descendant
// queries from posting lists, matches the sequential evaluator node
// for node, and reports the mode through Explain and Stats.
func TestIndexedEngineMatchesSequential(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	seqE, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	idxE, err := NewWithConfig(spec, Config{Indexed: true, IndexThreshold: -1})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	doc := dtds.GenerateHospital(17, 6)
	for _, q := range []string{
		"//patient/name",
		"//dept//treatment//bill",
		"//bill",
		"//patient[wardNo]/name",
		"dept/staffInfo/staff/*", // no // step: falls back to sequential
	} {
		want, err := seqE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		got, err := idxE.QueryString(doc, q)
		if err != nil {
			t.Fatalf("indexed %q: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: indexed %d nodes, sequential %d", q, len(got), len(want))
		}
	}
	s := idxE.Stats()
	if s.IndexedEvals == 0 {
		t.Errorf("indexed engine recorded no indexed evals: %+v", s)
	}
	if s.SequentialEvals == 0 {
		t.Errorf("descendant-free query should have fallen back to sequential: %+v", s)
	}
	if s.IndexCache.Entries == 0 || s.IndexCache.Misses == 0 {
		t.Errorf("index cache never populated: %+v", s.IndexCache)
	}
	// The second query over the same document reuses the cached index.
	if s.IndexCache.Hits == 0 {
		t.Errorf("index cache never hit across queries: %+v", s.IndexCache)
	}
}

// TestExplainReportsIndexedMode: /explainz's EvalMode shows what the
// evaluator actually did, including the indexed mode and its
// nodes-visited counter.
func TestExplainReportsIndexedMode(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := NewWithConfig(spec, Config{Indexed: true, IndexThreshold: -1})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	doc := dtds.GenerateHospital(3, 4)
	p, err := xpath.Parse("//dept//treatment//bill")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ex, err := e.ExplainCtx(context.Background(), doc, p)
	if err != nil {
		t.Fatalf("ExplainCtx: %v", err)
	}
	if ex.EvalMode != obs.ModeIndexed {
		t.Errorf("EvalMode = %q, want %q", ex.EvalMode, obs.ModeIndexed)
	}
	if ex.NodesVisited == 0 {
		t.Errorf("indexed explain reported zero nodes visited")
	}
	// A small document under the default threshold stays sequential.
	small, err := NewWithConfig(spec, Config{Indexed: true})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	ex2, err := small.ExplainCtx(context.Background(), doc, p)
	if err != nil {
		t.Fatalf("ExplainCtx: %v", err)
	}
	if doc.Size() < DefaultIndexThreshold && ex2.EvalMode != obs.ModeSequential {
		t.Errorf("below-threshold EvalMode = %q, want %q", ex2.EvalMode, obs.ModeSequential)
	}
}

// TestEvalPreparedBareMatchesInstrumented: evalPrepared has one path for
// bare contexts and contexts carrying QueryMetrics, so the two must
// return the same answer and move the same eval counters. The
// uncompacted large document fails the compaction gate and reports
// sequential even on an Indexed engine.
func TestEvalPreparedBareMatchesInstrumented(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := NewWithConfig(spec, Config{Indexed: true})
	if err != nil {
		t.Fatalf("NewWithConfig: %v", err)
	}
	small, large := dtds.GenerateHospital(7, 6), dtds.GenerateHospital(1, 48)
	if small.Size() >= DefaultIndexThreshold || large.Size() < DefaultIndexThreshold {
		t.Fatalf("document sizes %d and %d do not straddle the index threshold", small.Size(), large.Size())
	}
	uncompacted := xmltree.NewDocument(large.Root.Clone())
	type deltas struct{ seq, idx, ord uint64 }
	run := func(ctx context.Context, doc *xmltree.Document, q string) ([]*xmltree.Node, deltas) {
		t.Helper()
		before := e.Stats()
		out, err := e.QueryStringCtx(ctx, doc, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		after := e.Stats()
		return out, deltas{
			after.SequentialEvals - before.SequentialEvals,
			after.IndexedEvals - before.IndexedEvals,
			after.OrdinalEvals - before.OrdinalEvals,
		}
	}
	for _, tc := range []struct {
		name, q string
		doc     *xmltree.Document
		mode    string
	}{
		{"small", "//dept//treatment//bill", small, obs.ModeSequential},
		{"large", "//dept//treatment//bill", large, obs.ModeIndexed},
		{"large child-only", "dept/staffInfo/staff/*", large, obs.ModeSequential},
		{"uncompacted large", "//dept//treatment//bill", uncompacted, obs.ModeSequential},
	} {
		bare, bareD := run(context.Background(), tc.doc, tc.q)
		qm := &obs.QueryMetrics{}
		inst, instD := run(obs.WithQueryMetrics(context.Background(), qm), tc.doc, tc.q)
		if !reflect.DeepEqual(bare, inst) {
			t.Errorf("%s: bare %d nodes, instrumented %d", tc.name, len(bare), len(inst))
		}
		if len(bare) == 0 {
			t.Errorf("%s: empty answer proves nothing", tc.name)
		}
		if bareD != instD {
			t.Errorf("%s: Stats deltas bare %+v, instrumented %+v", tc.name, bareD, instD)
		}
		want := deltas{seq: 1}
		if tc.mode == obs.ModeIndexed {
			want = deltas{idx: 1}
		}
		if xpath.OrdinalApplicable(tc.doc) {
			want.ord = 1
		}
		if instD != want {
			t.Errorf("%s: Stats deltas %+v, want %+v", tc.name, instD, want)
		}
		if qm.EvalMode != tc.mode || qm.NodesVisited == 0 {
			t.Errorf("%s: EvalMode %q with %d nodes visited, want %q and > 0", tc.name, qm.EvalMode, qm.NodesVisited, tc.mode)
		}
	}
}
