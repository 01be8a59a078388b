package xpath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func TestIndexBasics(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	if idx.Doc() != doc {
		t.Errorf("Doc() wrong")
	}
	if got := len(idx.Labeled("patient")); got != 3 {
		t.Errorf("Labeled(patient) = %d, want 3", got)
	}
	if got := len(idx.Labeled("nosuch")); got != 0 {
		t.Errorf("Labeled(nosuch) = %d", got)
	}
	// Posting lists are in document order.
	for l, nodes := range idx.byLabel {
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1].Ord() >= nodes[i].Ord() {
				t.Errorf("posting list for %s out of order", l)
			}
		}
	}
}

func TestEvalIndexedMatchesEval(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	queries := []string{
		"//patient/name",
		"//dept//patientInfo/patient/name",
		"//bill",
		"//patient[wardNo = \"6\"]/name",
		"dept/*",
		"//(trial | regular)/bill",
		"//name/text()",
		"//dept[staffInfo/staff/doctor]//bill",
		".",
		"//.",
		"nonexistent",
		"//patient[not(treatment/trial)]",
	}
	for _, q := range queries {
		p := MustParse(q)
		want := EvalDoc(p, doc)
		got := EvalIndexed(p, idx)
		if len(got) != len(want) {
			t.Errorf("%q: indexed %d nodes, tree %d", q, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q: node %d differs", q, i)
			}
		}
	}
}

func TestEvalIndexedAtSubcontext(t *testing.T) {
	// The slice walk on the hand-built tree is the reference; the
	// compacted clone takes the bitset path with posting lists.
	ref := hospitalDoc()
	doc := xmltree.NewDocument(ref.Root.Clone())
	doc.Compact()
	idx := NewIndex(doc)
	p := MustParse("//bill")
	depts := EvalDoc(MustParse("dept"), doc)
	// Evaluate //bill at the second dept only.
	got, _, err := evalNodes(nil, p, depts[1:], idx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalAtCtx(nil, p, EvalDoc(MustParse("dept"), ref)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("subcontext: indexed %v, tree %v", texts(got), texts(want))
	}
	for i := range want {
		if got[i].Ord() != want[i].Ord() {
			t.Errorf("subcontext: node %d at ord %d, tree %d", i, got[i].Ord(), want[i].Ord())
		}
	}
	if len(got) != 1 || got[0].Text() != "70" {
		t.Errorf("subcontext bills = %v", texts(got))
	}
}

// TestEvalIndexedProperty: the indexed evaluator agrees with the tree
// evaluator on random queries.
func TestEvalIndexedProperty(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randHospitalPath(r, 3)
		want := EvalDoc(p, doc)
		got := EvalIndexed(p, idx)
		if len(got) != len(want) {
			t.Logf("seed %d: %s: %d vs %d", seed, String(p), len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
