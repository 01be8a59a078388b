package xpath_test

// Fuzz targets for the error-returning evaluator path: any query or
// qualifier the parser accepts must evaluate without panicking —
// rejections (unbound $variables) must come back as errors — and the
// bitset evaluator that serves production, with and without the label
// index, must agree with the slice reference walk on every accepted
// input. Seeds come from the example queries shipped in
// internal/dtds (the Table 1 Adex benchmarks and the hospital/nurse
// scenario).

import (
	"testing"

	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// fuzzDoc is a small document whose labels overlap the seed queries
// (hospital and Adex vocabulary) plus attribute-carrying and text nodes,
// so accepted queries actually select something.
func fuzzDoc() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	patient := e("patient", tx("name", "v1"), tx("wardNo", "1"),
		e("treatment", e("regular", tx("bill", "v2"), tx("medication", "v3"))))
	patient.SetAttr("id", "p1")
	ad := e("real-estate",
		e("house", tx("r-e.warranty", "w1"), tx("r-e.asking-price", "90")),
		e("apartment", tx("r-e.unit-type", "2br")))
	buyer := e("buyer-info", tx("contact-info", "c1"), tx("company-id", "acme"))
	buyer.SetAttr("accessibility", "1")
	root := e("hospital",
		e("dept", e("patientInfo", patient),
			e("staffInfo", e("staff", e("nurse", tx("name", "v4"))))),
		ad, buyer)
	return xmltree.NewDocument(root)
}

func fuzzSeeds() []string {
	seeds := []string{
		"//patient/name",
		"//dept//patientInfo/patient/name",
		"//patient[wardNo = \"1\"]/name",
		"//*[name]/wardNo | //bill",
		"//staff/nurse",
		".//treatment//bill",
		"text()",
		"//patient[@id]",
		"a[b = $w]",
		"∅",
		"//*//*[not(x) and .//y]",
	}
	for _, q := range dtds.AdexQueries {
		seeds = append(seeds, q)
	}
	return seeds
}

// FuzzEval drives three evaluations of arbitrary parsed queries against
// each other: the bitset path (EvalDocErr on a compacted clone of
// fuzzDoc), the bitset path with posting lists (EvalIndexedCtx over the
// clone's index), and the slice walk (EvalDocErr on the uncompacted
// fuzzDoc). All three must return the same error status and the same
// node ordinals. Run with go test -fuzz=FuzzEval$ ./internal/xpath.
func FuzzEval(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	doc := fuzzDoc()
	compact := xmltree.NewDocument(doc.Root.Clone())
	compact.Compact()
	idx := xpath.NewIndex(compact)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := xpath.Parse(src)
		if err != nil {
			return // parser rejection is fine; evaluator panics are not
		}
		ref, refErr := xpath.EvalDocErr(p, doc)
		bits, bitsErr := xpath.EvalDocErr(p, compact)
		indexed, idxErr := xpath.EvalIndexedCtx(nil, p, idx)
		if (refErr == nil) != (bitsErr == nil) || (refErr == nil) != (idxErr == nil) {
			t.Fatalf("evaluators disagree on error for %q: slice %v, bitset %v, indexed %v", src, refErr, bitsErr, idxErr)
		}
		if refErr != nil {
			return // all rejected (e.g. unbound $variable) without panicking
		}
		if !sameOrds(bits, ref) || !sameOrds(indexed, ref) {
			t.Fatalf("evaluators disagree on %q: slice %d, bitset %d, indexed %d nodes", src, len(ref), len(bits), len(indexed))
		}
		seen := make(map[*xmltree.Node]bool, len(ref))
		for i, n := range ref {
			if seen[n] || (i > 0 && ref[i-1].Ord() >= n.Ord()) {
				t.Fatalf("result of %q violates the sorted-unique invariant at %d", src, i)
			}
			seen[n] = true
		}
	})
}

// sameOrds reports whether two results hold the same preorder ordinals
// in the same order — node equality across a document and its clone.
func sameOrds(got, want []*xmltree.Node) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Ord() != want[i].Ord() {
			return false
		}
	}
	return true
}

// FuzzEvalQual does the same for bare qualifiers through EvalQualErr.
func FuzzEvalQual(f *testing.F) {
	for _, seed := range []string{
		"name",
		"wardNo = \"1\"",
		"*/patient/wardNo = $wardNo",
		"//company-id and //contact-info",
		"house/r-e.asking-price and apartment/r-e.unit-type",
		"@accessibility = \"1\"",
		"not(@ssn)",
		"not(not(treatment//bill))",
		"true() and false()",
	} {
		f.Add(seed)
	}
	doc := fuzzDoc()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := xpath.ParseQual(src)
		if err != nil {
			return
		}
		// Evaluate at every node so qualifiers exercise attribute, text,
		// and element contexts; errors (unbound $variables) are fine,
		// panics are the target.
		doc.Root.Walk(func(n *xmltree.Node) bool {
			_, _ = xpath.EvalQualErr(q, n)
			return true
		})
	})
}
