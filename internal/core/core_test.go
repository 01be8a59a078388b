package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/xpath"
)

func nurseEngine(t *testing.T, ward string) *Engine {
	t.Helper()
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": ward})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func TestNewRejectsUnboundParameters(t *testing.T) {
	_, err := New(dtds.NurseSpec())
	if err == nil || !strings.Contains(err.Error(), "wardNo") {
		t.Errorf("New(unbound) = %v", err)
	}
}

func TestEngineAccessors(t *testing.T) {
	e := nurseEngine(t, "6")
	if e.ViewDTD().Root() != "hospital" {
		t.Errorf("view root = %q", e.ViewDTD().Root())
	}
	if e.DocumentDTD().Len() != dtds.Hospital().Len() {
		t.Errorf("document DTD wrong")
	}
	if e.Spec() == nil || e.View() == nil {
		t.Errorf("nil accessors")
	}
}

func TestEngineQueryOnGeneratedData(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(11, 4)
	got, err := e.QueryString(doc, "//patient/name")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	// Cross-check against the materialized view.
	m, err := e.Materialize(doc)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	want := xpath.EvalDoc(xpath.MustParse("//patient/name"), m.View)
	if len(got) != len(want) {
		t.Fatalf("engine returned %d names, view has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != m.DocOf[want[i]] {
			t.Errorf("result %d differs from view", i)
		}
	}
	if err := e.Audit(doc); err != nil {
		t.Errorf("Audit: %v", err)
	}
}

func TestEngineQueryParseError(t *testing.T) {
	e := nurseEngine(t, "6")
	doc := dtds.GenerateHospital(1, 2)
	if _, err := e.QueryString(doc, "///"); err == nil {
		t.Errorf("bad query accepted")
	}
}

func TestEngineOptimizeEquivalence(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(13, 4)
	for _, q := range []string{"//patient//bill", "//dummy2/medication", "dept/staffInfo/staff/*"} {
		pt, err := e.Rewrite(xpath.MustParse(q), doc.Height())
		if err != nil {
			t.Fatalf("Rewrite(%q): %v", q, err)
		}
		po := e.Optimize(pt)
		a := xpath.EvalDoc(pt, doc)
		b := xpath.EvalDoc(po, doc)
		if len(a) != len(b) {
			t.Errorf("%q: optimize changed result count %d -> %d", q, len(a), len(b))
		}
	}
}

func TestEngineRecursiveRewriterHeightFree(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := e.RewriteMode(); got != "height-free" {
		t.Errorf("RewriteMode = %q, want height-free", got)
	}
	r1, err := e.Rewriter(5)
	if err != nil {
		t.Fatalf("Rewriter(5): %v", err)
	}
	r3, err := e.Rewriter(9)
	if err != nil {
		t.Fatalf("Rewriter(9): %v", err)
	}
	if r1 != r3 {
		t.Errorf("height-free mode built per-height rewriters")
	}
}

func TestEngineNonRecursiveIgnoresHeight(t *testing.T) {
	e := nurseEngine(t, "6")
	r1, _ := e.Rewriter(1)
	r2, _ := e.Rewriter(100)
	if r1 != r2 {
		t.Errorf("non-recursive view built per-height rewriters")
	}
}

func TestEngineDeniesEverythingButRoot(t *testing.T) {
	d := dtds.Hospital()
	spec := access.MustParseAnnotations(d, "ann(hospital, dept) = N\n")
	e, err := New(spec)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	doc := dtds.GenerateHospital(5, 3)
	res, err := e.QueryString(doc, "//patient")
	if err != nil {
		t.Fatalf("QueryString: %v", err)
	}
	if len(res) != 0 {
		t.Errorf("fully denied policy returned %d nodes", len(res))
	}
	if got := e.ViewDTD().Len(); got != 1 {
		t.Errorf("view DTD has %d types, want 1 (root only)", got)
	}
}

func TestPreparedQueries(t *testing.T) {
	e := nurseEngine(t, "1")
	q, err := e.PrepareString("//patient/name")
	if err != nil {
		t.Fatalf("PrepareString: %v", err)
	}
	if xpath.IsEmpty(q.Rewritten) || xpath.IsEmpty(q.Optimized) {
		t.Fatalf("prepared forms empty")
	}
	for seed := int64(0); seed < 3; seed++ {
		doc := dtds.GenerateHospital(seed, 3)
		want, err := e.Query(doc, q.Source)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		got := q.Eval(doc)
		if len(got) != len(want) {
			t.Errorf("seed %d: prepared %d, direct %d", seed, len(got), len(want))
		}
		idx := xpath.NewIndex(doc)
		gotIdx := q.EvalIndexed(idx)
		if len(gotIdx) != len(want) {
			t.Errorf("seed %d: indexed prepared %d, direct %d", seed, len(gotIdx), len(want))
		}
	}
	if _, err := e.PrepareString("///"); err == nil {
		t.Errorf("bad query prepared")
	}
}

func TestPrepareRecursiveView(t *testing.T) {
	// Height-free plans are document-independent, so a recursive view
	// can be prepared once.
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.PrepareString("//b"); err != nil {
		t.Errorf("height-free Prepare: %v", err)
	}
}

// TestEngineConcurrentQueries: an Engine must serve parallel queries
// safely (run with -race).
func TestEngineConcurrentQueries(t *testing.T) {
	e := nurseEngine(t, "1")
	doc := dtds.GenerateHospital(7, 3)
	queries := []string{"//patient/name", "//bill", "dept/staffInfo/staff/*", "//dummy2/medication"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := e.QueryString(doc, queries[(i+j)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

// TestEngineConcurrentRecursive exercises the recursive view's rewriter
// under parallel access at several document heights.
func TestEngineConcurrentRecursive(t *testing.T) {
	e, err := New(dtds.Fig7Spec())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	docs := []struct{ height int }{{3}, {5}, {7}}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				h := docs[(i+j)%len(docs)].height
				if _, err := e.Rewrite(xpath.MustParse("//b"), h); err != nil {
					t.Errorf("Rewrite: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
