package securexml

// Benchmark harness for every experiment in the paper's evaluation
// section plus the ablations listed in DESIGN.md:
//
//	BenchmarkTable1/...            Table 1 (Q1-Q4 × D1-D4 × 3 approaches)
//	BenchmarkDerive/...            Ablation A: derive cost vs DTD size
//	BenchmarkRewrite/...           Ablation B: rewrite cost vs query/view size
//	BenchmarkRewriteWidth/...      Ablation B at scale: |p| up to 10⁴ nodes
//	BenchmarkSimplify/...          the simplification laws ending B and C
//	BenchmarkSimulate/...          Ablation C: containment-test cost
//	BenchmarkImage/...             Ablation C: image construction alone
//	BenchmarkUnfold/...            Ablation D: recursive-view unfolding
//	BenchmarkMaterializeVsRewrite  Ablation E: materialization vs rewriting
//	BenchmarkAnnotate              naive baseline's per-policy deployment cost
//	BenchmarkAnswerCacheLookup/... answer-cache proofs over prebuilt images
//
// cmd/svbench prints the Table 1 measurements in the paper's layout;
// EXPERIMENTS.md records paper-reported vs measured values.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/anscache"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/naive"
	"repro/internal/optimize"
	"repro/internal/rewrite"
	"repro/internal/safety"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// ---------- Table 1 ----------

// benchDataSets are smaller than the svbench defaults so the full grid
// stays fast under go test -bench; relative shape is unchanged.
var benchDataSets = []struct {
	name      string
	maxRepeat int
}{
	{"D1", 200},
	{"D2", 1000},
	{"D3", 3200},
	{"D4", 4800},
}

type table1State struct {
	docs map[string]*xmltree.Document
	// per query: the three prepared forms
	naiveQ, rewriteQ, optimizeQ map[string]xpath.Path
}

var (
	table1Once sync.Once
	table1     table1State
)

func table1Setup(b *testing.B) *table1State {
	b.Helper()
	table1Once.Do(func() {
		spec := dtds.AdexSpec()
		view, err := secview.Derive(spec)
		if err != nil {
			panic(err)
		}
		rw, err := rewrite.ForView(view)
		if err != nil {
			panic(err)
		}
		opt := optimize.New(dtds.Adex())
		table1.docs = make(map[string]*xmltree.Document)
		for i, ds := range benchDataSets {
			doc := dtds.GenerateAdex(int64(i)+1, ds.maxRepeat)
			naive.Annotate(spec, doc)
			table1.docs[ds.name] = doc
		}
		table1.naiveQ = make(map[string]xpath.Path)
		table1.rewriteQ = make(map[string]xpath.Path)
		table1.optimizeQ = make(map[string]xpath.Path)
		for name, q := range dtds.AdexQueries {
			p := xpath.MustParse(q)
			pn, err := naive.RewriteQuery(p)
			if err != nil {
				panic(err)
			}
			pt, err := rw.Rewrite(p)
			if err != nil {
				panic(err)
			}
			table1.naiveQ[name] = pn
			table1.rewriteQ[name] = pt
			table1.optimizeQ[name] = opt.Optimize(pt)
		}
	})
	return &table1
}

func BenchmarkTable1(b *testing.B) {
	st := table1Setup(b)
	for _, qname := range []string{"Q1", "Q2", "Q3", "Q4"} {
		for _, ds := range benchDataSets {
			doc := st.docs[ds.name]
			for _, approach := range []struct {
				name string
				q    xpath.Path
			}{
				{"naive", st.naiveQ[qname]},
				{"rewrite", st.rewriteQ[qname]},
				{"optimize", st.optimizeQ[qname]},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", qname, ds.name, approach.name), func(b *testing.B) {
					b.ReportMetric(float64(doc.Size()), "docnodes")
					for i := 0; i < b.N; i++ {
						xpath.EvalDoc(approach.q, doc)
					}
				})
			}
		}
	}
}

// BenchmarkTable1Indexed repeats the Table 1 grid under the indexed
// evaluator (the closer analogue of the paper's evaluator [17]): the
// naive/rewrite gap narrows but persists, because the naive query still
// pays an ancestor filter and attribute check per candidate while the
// rewritten query touches only the relevant region.
func BenchmarkTable1Indexed(b *testing.B) {
	st := table1Setup(b)
	indexes := make(map[string]*xpath.Index, len(benchDataSets))
	for _, ds := range benchDataSets {
		indexes[ds.name] = xpath.NewIndex(st.docs[ds.name])
	}
	for _, qname := range []string{"Q1", "Q2", "Q3", "Q4"} {
		for _, ds := range benchDataSets {
			idx := indexes[ds.name]
			for _, approach := range []struct {
				name string
				q    xpath.Path
			}{
				{"naive", st.naiveQ[qname]},
				{"rewrite", st.rewriteQ[qname]},
				{"optimize", st.optimizeQ[qname]},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", qname, ds.name, approach.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						xpath.EvalIndexed(approach.q, idx)
					}
				})
			}
		}
	}
}

// ---------- Ablation A: derive cost vs DTD size ----------

// layeredDTD builds a DTD with the given number of layers and width:
// each layer-i type is a concatenation of all layer-(i+1) types.
func layeredDTD(layers, width int) *dtd.DTD {
	d := dtd.New("L0x0")
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("L%dx%d", l, w)
			if l == layers-1 {
				d.SetProduction(name, dtd.TextContent())
				continue
			}
			names := make([]string, width)
			for c := 0; c < width; c++ {
				names[c] = fmt.Sprintf("L%dx%d", l+1, c)
			}
			d.SetProduction(name, dtd.SeqContent(names...))
		}
	}
	return d
}

// layeredSpec denies every odd layer, forcing short-cutting everywhere.
func layeredSpec(d *dtd.DTD, layers, width int) *access.Spec {
	s := access.NewSpec(d)
	for l := 0; l+1 < layers; l++ {
		if (l+1)%2 != 1 {
			continue
		}
		for w := 0; w < width; w++ {
			parent := fmt.Sprintf("L%dx%d", l, w)
			for c := 0; c < width; c++ {
				child := fmt.Sprintf("L%dx%d", l+1, c)
				if err := s.Annotate(parent, child, access.Ann{Kind: access.Deny}); err != nil {
					panic(err)
				}
			}
		}
	}
	return s
}

func BenchmarkDerive(b *testing.B) {
	for _, size := range []struct{ layers, width int }{{4, 3}, {6, 4}, {8, 5}, {10, 6}} {
		d := layeredDTD(size.layers, size.width)
		spec := layeredSpec(d, size.layers, size.width)
		b.Run(fmt.Sprintf("types=%d", d.Len()), func(b *testing.B) {
			b.ReportMetric(float64(d.Size()), "dtdsize")
			for i := 0; i < b.N; i++ {
				if _, err := secview.Derive(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- Ablation B: rewrite cost vs query and view size ----------

func BenchmarkRewrite(b *testing.B) {
	for _, size := range []struct{ layers, width int }{{4, 3}, {6, 4}, {8, 5}} {
		d := layeredDTD(size.layers, size.width)
		view, err := secview.Derive(access.NewSpec(d))
		if err != nil {
			b.Fatal(err)
		}
		for _, qsteps := range []int{2, 8, 32} {
			var parts []string
			for i := 0; i < qsteps; i++ {
				parts = append(parts, "*")
			}
			q := "//" + strings.Join(parts, "/")
			p := xpath.MustParse(q)
			b.Run(fmt.Sprintf("view=%d/query=%d", d.Size(), xpath.Size(p)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Fresh rewriter each round: the DP memo must not amortize
					// across iterations or the measured cost vanishes.
					r, err := rewrite.ForView(view)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := r.Rewrite(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRewriteWidth is Ablation B at scale: |p| ∈ {10², 10³, 10⁴}
// AST nodes for two families, a union of distinct
// //patient[.//bill = "yI"]//name branches over the hospital nurse view
// and an a/a/…/a/b child path over the recursive Fig. 7 view. The
// rewrite row times a cold rewriter (fresh DP memo each round); the
// optimize row times a cold optimizer on that rewrite's output, as its
// own trajectory. cells/node is the DP cells computed per query node,
// which Thm 4.1 keeps flat in |p|.
func BenchmarkRewriteWidth(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	hospital, err := secview.Derive(spec)
	if err != nil {
		b.Fatal(err)
	}
	fig7, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		b.Fatal(err)
	}
	families := []struct {
		name  string
		view  *secview.View
		query func(n int) xpath.Path
	}{
		{"union", hospital, func(n int) xpath.Path {
			var p xpath.Path = xpath.Empty{}
			for i, size := 0, 0; size < n; i++ {
				br := xpath.MustParse(fmt.Sprintf(`//patient[.//bill = "y%d"]//name`, i))
				p = xpath.MakeUnion(p, br)
				size += xpath.Size(br) + 1
			}
			return p
		}},
		{"path", fig7, func(n int) xpath.Path {
			var p xpath.Path = xpath.L("a")
			for size := 1; size < n-2; size += 2 {
				p = xpath.Seq{Left: p, Right: xpath.L("a")}
			}
			return xpath.Seq{Left: p, Right: xpath.L("b")}
		}},
	}
	for _, f := range families {
		for _, n := range []int{100, 1000, 10000} {
			p := f.query(n)
			size := float64(xpath.Size(p))
			rw, err := rewrite.ForView(f.view)
			if err != nil {
				b.Fatal(err)
			}
			pt, err := rw.Rewrite(p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%d/rewrite", f.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Fresh rewriter each round: the DP memo must not
					// amortize across iterations.
					r, err := rewrite.ForView(f.view)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := r.Rewrite(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rw.MemoLen())/size, "cells/node")
			})
			b.Run(fmt.Sprintf("%s/p=%d/optimize", f.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					optimize.New(f.view.Doc).Optimize(pt)
				}
			})
		}
	}
}

// BenchmarkSimplify prices the ∅/ε/constant laws that end every
// rewrite and optimize, on the optimized plan of a 100-node union of
// //patient[.//bill = "yI"]//name branches over the hospital nurse view.
// "simplified" feeds the plan back in: no law fires, so Simplify returns
// its argument and allocates nothing. "leaf-law" first wraps the plan's
// leftmost leaf l as l/ε, so one law fires there and Simplify rebuilds
// only the spine above it: allocs/op equals the spine metric.
func BenchmarkSimplify(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	view, err := secview.Derive(spec)
	if err != nil {
		b.Fatal(err)
	}
	rw, err := rewrite.ForView(view)
	if err != nil {
		b.Fatal(err)
	}
	var p xpath.Path = xpath.Empty{}
	for i := 0; xpath.Size(p) < 100; i++ {
		p = xpath.MakeUnion(p, xpath.MustParse(fmt.Sprintf(`//patient[.//bill = "y%d"]//name`, i)))
	}
	pt, err := rw.Rewrite(p)
	if err != nil {
		b.Fatal(err)
	}
	plan := optimize.New(view.Doc).Optimize(pt)
	leafLaw, spine := lawAtLeftmostLeaf(plan)
	if got, want := xpath.String(xpath.Simplify(leafLaw)), xpath.String(plan); got != want {
		b.Fatalf("leaf law simplified to %s, want %s", got, want)
	}
	for _, c := range []struct {
		name  string
		p     xpath.Path
		spine int
	}{{"simplified", plan, 0}, {"leaf-law", leafLaw, spine}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				xpath.Simplify(c.p)
			}
			b.ReportMetric(float64(xpath.Size(c.p)), "nodes/op")
			b.ReportMetric(float64(c.spine), "spine")
		})
	}
}

// lawAtLeftmostLeaf returns p with its leftmost leaf l replaced by l/ε,
// and the number of nodes above that leaf.
func lawAtLeftmostLeaf(p xpath.Path) (xpath.Path, int) {
	switch n := p.(type) {
	case xpath.Seq:
		l, d := lawAtLeftmostLeaf(n.Left)
		return xpath.Seq{Left: l, Right: n.Right}, d + 1
	case xpath.Union:
		l, d := lawAtLeftmostLeaf(n.Left)
		return xpath.Union{Left: l, Right: n.Right}, d + 1
	case xpath.Descend:
		s, d := lawAtLeftmostLeaf(n.Sub)
		return xpath.Descend{Sub: s}, d + 1
	case xpath.Qualified:
		s, d := lawAtLeftmostLeaf(n.Sub)
		return xpath.Qualified{Sub: s, Cond: n.Cond}, d + 1
	default:
		return xpath.Seq{Left: p, Right: xpath.Self{}}, 0
	}
}

// ---------- Ablation C: containment-test cost ----------

// BenchmarkSimulate prices one Section 5.1 containment test: both image
// graphs built, then the Proposition 5.1 simulation between them.
func BenchmarkSimulate(b *testing.B) {
	for _, size := range []struct{ layers, width int }{{4, 3}, {7, 3}, {6, 4}} {
		d := layeredDTD(size.layers, size.width)
		o := optimize.New(d)
		// p1 wildcards simulate p2 labels: the classic Example 5.2 shape.
		// The sizes keep p1's image under the build budget: at 8 layers
		// its 4^7 (or 3^7) leaves overflow and nothing is proved.
		steps := size.layers - 1
		wild := "." + strings.Repeat("/*", steps)
		labeled := "."
		for l := 1; l < size.layers; l++ {
			labeled += fmt.Sprintf("/L%dx0", l)
		}
		p1 := xpath.MustParse(wild)
		p2 := xpath.MustParse(labeled)
		b.Run(fmt.Sprintf("dtd=%d", d.Size()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !o.Contains(p2, p1) {
					b.Fatal("labeled path not proved contained in the wildcard path")
				}
			}
		})
	}
}

// BenchmarkImage prices image construction alone: Optimizer.Image over
// qualifier-free unions of distinct label paths at |p| ∈ {10², 10³}
// AST nodes over a layered DTD, and a '//'-heavy union over the
// hospital DTD, whose spines share nodes. nodes/op is the image nodes
// one build creates; allocs/op should not grow with it.
func BenchmarkImage(b *testing.B) {
	layered := layeredDTD(5, 4)
	labelUnion := func(n int) xpath.Path {
		var p xpath.Path = xpath.Empty{}
		for i := 0; xpath.Size(p) < n; i++ {
			p = xpath.MakeUnion(p, xpath.MustParse(fmt.Sprintf("L1x%d/L2x%d/L3x%d/L4x%d", i%4, i/4%4, i/16%4, i/64%4)))
		}
		return p
	}
	cases := []struct {
		name string
		o    *optimize.Optimizer
		p    xpath.Path
	}{
		{"union/p=100", optimize.New(layered), labelUnion(100)},
		{"union/p=1000", optimize.New(layered), labelUnion(1000)},
		{"hospital-descend", optimize.New(dtds.Hospital()),
			xpath.MustParse("//patient//name | //dept//bill | //treatment//* | //staffInfo//name | //clinicalTrial//wardNo")},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var img *optimize.Image
			for i := 0; i < b.N; i++ {
				img = c.o.Image(c.p)
			}
			b.ReportMetric(float64(img.Nodes()), "nodes/op")
		})
	}
}

// ---------- Ablation D: recursive-view unfolding ----------

func BenchmarkUnfold(b *testing.B) {
	view, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		b.Fatal(err)
	}
	p := xpath.MustParse("//b")
	for _, height := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("height=%d", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := rewrite.ForViewWithHeight(view, height)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Rewrite(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- Height sweep: height-free vs unfolding ----------

// BenchmarkHeightSweep measures both recursive-view rewriting
// treatments across document heights: rewrite time, plan node count
// (reported as the plan-nodes metric), and evaluation time over a
// document of each height. The unfold oracle's plans and rewrite times
// grow with height; the height-free Rec-automaton plan is one constant
// plan at every height.
func BenchmarkHeightSweep(b *testing.B) {
	view, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		b.Fatal(err)
	}
	p := xpath.MustParse("//b")
	for _, height := range []int{4, 8, 16, 32} {
		doc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
			Seed: int64(height), MinRepeat: 1, MaxRepeat: 2, MaxDepth: height, MaxNodes: 4000,
		})
		b.Run(fmt.Sprintf("h=%d/rewrite/height-free", height), func(b *testing.B) {
			var pt xpath.Path
			for i := 0; i < b.N; i++ {
				r, err := rewrite.ForView(view)
				if err != nil {
					b.Fatal(err)
				}
				if pt, err = r.Rewrite(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(xpath.Size(pt)), "plan-nodes")
		})
		b.Run(fmt.Sprintf("h=%d/rewrite/unfold", height), func(b *testing.B) {
			var pt xpath.Path
			for i := 0; i < b.N; i++ {
				r, err := rewrite.ForViewWithHeight(view, doc.Height())
				if err != nil {
					b.Fatal(err)
				}
				if pt, err = r.Rewrite(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(xpath.Size(pt)), "plan-nodes")
		})
		hf, err := rewrite.ForView(view)
		if err != nil {
			b.Fatal(err)
		}
		ptHF, err := hf.Rewrite(p)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := rewrite.ForViewWithHeight(view, doc.Height())
		if err != nil {
			b.Fatal(err)
		}
		ptOr, err := oracle.Rewrite(p)
		if err != nil {
			b.Fatal(err)
		}
		if hfN, orN := len(xpath.EvalDoc(ptHF, doc)), len(xpath.EvalDoc(ptOr, doc)); hfN != orN {
			b.Fatalf("height %d: treatments disagree: height-free %d nodes, unfold %d", height, hfN, orN)
		}
		b.Run(fmt.Sprintf("h=%d/eval/height-free", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xpath.EvalDoc(ptHF, doc)
			}
		})
		b.Run(fmt.Sprintf("h=%d/eval/unfold", height), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xpath.EvalDoc(ptOr, doc)
			}
		})
	}
}

// ---------- Ablation E: materialization vs rewriting ----------

func BenchmarkMaterializeVsRewrite(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	view, err := secview.Derive(spec)
	if err != nil {
		b.Fatal(err)
	}
	doc := dtds.GenerateHospital(3, 40)
	p := xpath.MustParse("//patient/name")
	r, err := rewrite.ForView(view)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := r.Rewrite(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("materialize-then-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := secview.Materialize(view, doc)
			if err != nil {
				b.Fatal(err)
			}
			xpath.EvalDoc(p, m.View)
		}
	})
	b.Run("rewrite-then-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xpath.EvalDoc(pt, doc)
		}
	})
}

// ---------- naive baseline's deployment cost ----------

func BenchmarkAnnotate(b *testing.B) {
	spec := dtds.AdexSpec()
	doc := dtds.GenerateAdex(9, 1000)
	b.ReportMetric(float64(doc.Size()), "docnodes")
	for i := 0; i < b.N; i++ {
		naive.Annotate(spec, doc)
	}
}

// ---------- enforcement-model comparison ----------

// BenchmarkEnforcement compares the per-query cost of three enforcement
// models on the same policy and document: the paper's security-view
// rewriting, the run-time filtering of Murata et al. [22] (static safety
// check, then post-filter unsafe queries), and the naive annotate +
// widen baseline of Section 6. Filtering pays a full accessibility
// computation per query; views pay nothing at query time.
func BenchmarkEnforcement(b *testing.B) {
	spec := dtds.AdexSpec()
	doc := dtds.GenerateAdex(77, 1000)
	naive.Annotate(spec, doc)
	view, err := secview.Derive(spec)
	if err != nil {
		b.Fatal(err)
	}
	rw, err := rewrite.ForView(view)
	if err != nil {
		b.Fatal(err)
	}
	analyzer, err := safety.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	p := xpath.MustParse("//buyer-info/*") // unsafe: may reach billing-info
	pt, err := rw.Rewrite(xpath.MustParse("//buyer-info/*"))
	if err != nil {
		b.Fatal(err)
	}
	pn, err := naive.RewriteQuery(p)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("security-view-rewrite", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xpath.EvalDoc(pt, doc)
		}
	})
	b.Run("safety-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.Enforce(p, doc, safety.Filter); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-annotated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xpath.EvalDoc(pn, doc)
		}
	})
}

// ---------- plan cache: cached vs uncached query serving ----------

// BenchmarkPlanCache measures what the engine's plan cache buys on a
// repeated query: "cold" rebuilds the engine each round (every query
// re-rewrites and re-optimizes), "warm" reuses one engine whose cache
// serves the plan after the first round.
func BenchmarkPlanCache(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	doc := dtds.GenerateHospital(21, 8)
	const query = "//patient[wardNo]/name"
	p := xpath.MustParse(query)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.New(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Query(doc, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e, err := core.New(spec)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(doc, p); err != nil {
				b.Fatal(err)
			}
		}
		s := e.Stats()
		if s.PlanCache.Hits == 0 && b.N > 1 {
			b.Fatalf("warm path never hit the plan cache: %+v", s.PlanCache)
		}
		b.ReportMetric(float64(s.PlanCache.Hits), "hits")
	})
	// Rewrite+optimize alone, for scale: this is the work a hit skips.
	b.Run("rewrite-optimize-only", func(b *testing.B) {
		e, err := core.New(spec)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			pt, err := e.Rewrite(p, doc.Height())
			if err != nil {
				b.Fatal(err)
			}
			e.Optimize(pt)
		}
	})
}

// BenchmarkPlanCacheRecursive is the same comparison on a recursive
// view, where a miss additionally builds the height-free Rec plan.
func BenchmarkPlanCacheRecursive(b *testing.B) {
	p := xpath.MustParse("//b")
	var build func(d int) *xmltree.Node
	build = func(d int) *xmltree.Node {
		if d == 0 {
			return xmltree.E("a", xmltree.T("b", "leaf"), xmltree.E("c"))
		}
		return xmltree.E("a", xmltree.T("b", "x"), xmltree.E("c", build(d-1)))
	}
	doc := xmltree.NewDocument(build(24))
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.New(dtds.Fig7Spec())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Query(doc, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e, err := core.New(dtds.Fig7Spec())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(doc, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- generator throughput ----------

func BenchmarkGenerate(b *testing.B) {
	for _, repeat := range []int{100, 400} {
		b.Run(fmt.Sprintf("maxRepeat=%d", repeat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xmlgen.Generate(dtds.Adex(), xmlgen.Config{Seed: int64(i), MaxRepeat: repeat})
			}
		})
	}
}

// ---------- qualifier-gated plans on the large hospital document ----------

// BenchmarkQualifiedScan evaluates twelve selective view queries of the
// nurse class (ward 1) on the 10,254-node hospital document: the
// servebench scan-large query shapes, with constants picked by position
// from the ward's view. Their plans are rewritten and optimized once;
// the loop is indexed bitset evaluation alone, where every candidate
// patient or staff node is checked against a qualifier, so allocs/op
// shows any per-candidate allocation.
func BenchmarkQualifiedScan(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	doc := dtds.GenerateHospital(1, 48)
	texts := func(q string) []string {
		nodes, err := e.QueryString(doc, q)
		if err != nil || len(nodes) == 0 {
			b.Fatalf("%s: %d nodes, err %v", q, len(nodes), err)
		}
		out := make([]string, len(nodes))
		for i, n := range nodes {
			out[i] = n.Text()
		}
		return out
	}
	names, bills := texts("//patient/name"), texts("//patient/treatment//bill")
	meds := texts("//patient/treatment//medication")
	nurses, doctors := texts("//staff/nurse/name"), texts("//staff/doctor/name")
	at := func(vals []string, k int) string { return strconv.Quote(vals[k*len(vals)/16]) }
	queries := []string{
		`//patient[treatment//medication = ` + at(meds, 1) + `]/name`,
		`//patient[name = ` + at(names, 2) + `]/treatment//bill`,
		`//patient[.//bill = ` + at(bills, 3) + `]/wardNo`,
		`//dept//patient[name = ` + at(names, 4) + `]/wardNo`,
		`//patientInfo/patient[treatment//bill = ` + at(bills, 5) + ` or name = ` + at(names, 6) + `]/name`,
		`//staff[nurse/name = ` + at(nurses, 8) + `]/nurse/name`,
		`//staff[doctor/name = ` + at(doctors, 8) + `]/doctor/name`,
		`//patient[name = ` + at(names, 7) + `]//medication`,
		`//patient[not(treatment//medication) and name = ` + at(names, 8) + `]/name`,
		`//patient[treatment//medication = ` + at(meds, 10) + ` and name = ` + at(names, 10) + `]/wardNo`,
		`//dept//patient[wardNo = "1" and treatment//medication = ` + at(meds, 12) + `]/name`,
		`//patient[name = ` + at(names, 9) + ` or name = ` + at(names, 11) + `]/treatment//medication`,
	}
	plans := make([]xpath.Path, len(queries))
	want := make([]int, len(queries))
	for i, q := range queries {
		prep, err := e.PrepareString(q)
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = prep.Optimized
		res, err := e.QueryString(doc, q)
		if err != nil {
			b.Fatal(err)
		}
		want[i] = len(res)
	}
	idx := xpath.NewIndex(doc)
	ctx := context.Background()
	b.ReportMetric(float64(doc.Size()), "docnodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range plans {
			out, _, err := xpath.EvalIndexedCtxCounted(ctx, p, idx)
			if err != nil || len(out) != want[j] {
				b.Fatalf("%s: %d nodes, want %d, err %v", queries[j], len(out), want[j], err)
			}
		}
	}
}

// ---------- answer-cache lookup: proofs over prebuilt images ----------

// BenchmarkAnswerCacheLookup prices one answer-cache Lookup that scans
// a full window of eight same-group candidates on the 10,254-node
// hospital document, for the nurse class (ward 1). Every candidate was
// cached the way the engine caches it (a missed Lookup, then Put), so
// it carries its image, and the probe's match sits last in the scan:
//
//	miss         no candidate proves: the probe's and its base's images
//	             are built, then compared against all eight
//	equal-proof  the last candidate is the probe's union commuted, so
//	             only the simulation can show them equal
//	containment  the last candidate is the probe's base; its cached
//	             patients are filtered by the trailing qualifier
//
// allocs/op is the figure to watch: before images were built once per
// plan, the miss case rebuilt two image graphs per candidate pair.
func BenchmarkAnswerCacheLookup(b *testing.B) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := optimize.New(spec.D)
	doc := dtds.GenerateHospital(1, 48)
	plan := func(q string) xpath.Path {
		prep, err := e.PrepareString(q)
		if err != nil {
			b.Fatal(err)
		}
		return prep.Optimized
	}
	ctx := context.Background()
	// fill caches last, then the seven fillers, each through a missed
	// Lookup whose image goes to the Put; last ends up eighth in the
	// most-recently-used scan.
	var fillers []xpath.Path
	for _, q := range []string{"//wardNo", "//name", "//patient/name", "//bill",
		"//medication", "//staff/nurse/name", "//patient/treatment"} {
		fillers = append(fillers, plan(q))
	}
	fill := func(last xpath.Path) *anscache.Cache {
		c := anscache.New(256)
		for _, p := range append([]xpath.Path{last}, fillers...) {
			text := xpath.String(p)
			_, kind, img, err := c.Lookup(ctx, "g", text, p, opt)
			if err != nil || kind != anscache.KindMiss {
				b.Fatalf("filling %s: kind %v, err %v", text, kind, err)
			}
			nodes, err := xpath.EvalDocErr(p, doc)
			if err != nil {
				b.Fatal(err)
			}
			c.Put("g", text, p, img, nodes)
		}
		if c.Len() != 1+len(fillers) {
			b.Fatalf("cache holds %d entries, want %d distinct", c.Len(), 1+len(fillers))
		}
		return c
	}
	bill, med := plan("//patient/treatment//bill"), plan("//patient/treatment//medication")
	cases := []struct {
		name        string
		cached, got xpath.Path
		want        anscache.Kind
	}{
		{"miss", plan("//staff"), plan("//patient[.//medication]"), anscache.KindMiss},
		{"equal-proof", xpath.Union{Left: bill, Right: med}, xpath.Union{Left: med, Right: bill}, anscache.KindEqual},
		{"containment", plan("//patient"), plan("//patient[.//medication]"), anscache.KindContainment},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c := fill(tc.cached)
			text := xpath.String(tc.got)
			if text == xpath.String(tc.cached) {
				b.Fatalf("probe %s is the cached text; the case would be an exact-key hit", text)
			}
			// The first entry's miss had no candidate to compare, so it
			// was Put without an image; one untimed Lookup builds it.
			if _, _, _, err := c.Lookup(ctx, "g", text, tc.got, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(doc.Size()), "docnodes")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, kind, _, err := c.Lookup(ctx, "g", text, tc.got, opt)
				if err != nil || kind != tc.want {
					b.Fatalf("%s: kind %v, want %v, err %v", text, kind, tc.want, err)
				}
			}
		})
	}
}

// ---------- deep-descendant workload: walk vs index ----------

// BenchmarkDeepDescendant is the ROADMAP's structural-index target
// workload: //dept//treatment//bill-class queries over a 10k+ node
// hospital document, comparing bitset evaluation without and with the
// label index's posting lists. The
// index-build case prices what the serving layer amortizes via its
// per-document index cache.
func BenchmarkDeepDescendant(b *testing.B) {
	doc := dtds.GenerateHospital(1, 48)
	if doc.Size() < 10000 {
		b.Fatalf("document too small: %d nodes", doc.Size())
	}
	idx := xpath.NewIndex(doc)
	queries := []struct{ name, q string }{
		{"dept-treatment-bill", "//dept//treatment//bill"},
		{"deep-text", "//dept//patientInfo//name/text()"},
		{"qual-descend", "//dept[.//trial]//bill"},
	}
	b.ReportMetric(float64(doc.Size()), "docnodes")
	for _, tc := range queries {
		p := xpath.MustParse(tc.q)
		want := len(xpath.EvalDoc(p, doc))
		b.Run(tc.name+"/walk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := xpath.EvalDocErr(p, doc)
				if err != nil || len(out) != want {
					b.Fatalf("walk: %d nodes, err %v", len(out), err)
				}
			}
		})
		b.Run(tc.name+"/indexed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := xpath.EvalIndexed(p, idx); len(out) != want {
					b.Fatalf("indexed: %d nodes, want %d", len(out), want)
				}
			}
		})
	}
	b.Run("index-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xpath.NewIndex(doc)
		}
	})
}
