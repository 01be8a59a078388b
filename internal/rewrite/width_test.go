package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/dtds"
	"repro/internal/secview"
	"repro/internal/xpath"
)

// widthFamily builds a query of about n AST nodes over its view.
type widthFamily struct {
	name  string
	view  func(t *testing.T) *secview.View
	query func(n int) xpath.Path
}

// widthFamilies are Ablation B's two shapes: a union of distinct
// //patient[.//bill = "yI"]//name branches over the hospital view, and
// an a/a/…/a/b child path over the recursive Fig. 7 view (height-free).
// Both are built as ASTs: at 10⁴ nodes they exceed what the parser's
// xpath.MaxDepth admits.
var widthFamilies = []widthFamily{
	{"union", hospitalView, func(n int) xpath.Path {
		var p xpath.Path = xpath.Empty{}
		for i := 0; xpath.Size(p) < n; i++ {
			br := xpath.MustParse(fmt.Sprintf(`//patient[.//bill = "y%d"]//name`, i))
			if i == 0 {
				p = br
			} else {
				p = xpath.Union{Left: p, Right: br}
			}
		}
		return p
	}},
	{"path", fig7View, func(n int) xpath.Path {
		var p xpath.Path = xpath.L("a")
		for xpath.Size(p) < n-2 {
			p = xpath.Seq{Left: p, Right: xpath.L("a")}
		}
		return xpath.Seq{Left: p, Right: xpath.L("b")}
	}},
}

func fig7View(t *testing.T) *secview.View {
	t.Helper()
	v, err := secview.Derive(dtds.Fig7Spec())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRewriteWorkPerNodeIsFlat is Ablation B's linearity check (Thm 4.1
// bounds rewrite by O(|p|·|D_v|²)): across |p| ∈ {10², 10³, 10⁴}, the
// DP cells computed per query AST node stay within the number of view
// types, and the intern pass visits each node once (plus one visit per
// qualifier the DP reads as ε[q]). Work that grew with |p| per node —
// hashing whole subtrees per memo lookup, as the memo once did — would
// break both bounds' flatness.
func TestRewriteWorkPerNodeIsFlat(t *testing.T) {
	for _, f := range widthFamilies {
		v := f.view(t)
		types := float64(len(v.DTD.Types()) + 1) // + the text pseudo-type
		var first float64
		for _, n := range []int{100, 1000, 10000} {
			p := f.query(n)
			size := float64(xpath.Size(p))
			r, err := ForView(v)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Rewrite(p); err != nil {
				t.Fatal(err)
			}
			cells, visits := r.memo.Work()
			perNode, visitsPerNode := float64(cells)/size, float64(visits)/size
			t.Logf("%s |p|=%.0f: %.2f cells/node, %.2f intern visits/node (%v view types)", f.name, size, perNode, visitsPerNode, types)
			if perNode > types {
				t.Errorf("%s |p|=%.0f: %.2f cells per AST node, more than the %v view types", f.name, size, perNode, types)
			}
			if visitsPerNode < 1 || visitsPerNode > 2 {
				t.Errorf("%s |p|=%.0f: %.2f intern visits per AST node, want 1 to 2", f.name, size, visitsPerNode)
			}
			if first == 0 {
				first = perNode
			} else if perNode > 2*first {
				t.Errorf("%s |p|=%.0f: %.2f cells per node, more than twice the %.2f at |p|≈100", f.name, size, perNode, first)
			}
		}
	}
}
