package xpath

import (
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

func TestEvalNestedQualifiers(t *testing.T) {
	doc := hospitalDoc()
	// Patients in departments that have a nurse on staff.
	got := evalStrings(t, doc, `//dept[staffInfo/staff/nurse]/patientInfo/patient/name`)
	if !reflect.DeepEqual(got, []string{"Alice"}) {
		t.Errorf("nested qualifier = %v", got)
	}
	// Qualifier inside a qualifier.
	got = evalStrings(t, doc, `//dept[patientInfo[patient[wardNo = "7"]]]/patientInfo/patient/name`)
	if !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("doubly nested qualifier = %v", got)
	}
}

func TestEvalQualifierOnUnion(t *testing.T) {
	doc := hospitalDoc()
	got := evalStrings(t, doc, `//(trial | regular)[medication]/bill`)
	if !reflect.DeepEqual(got, []string{"100", "70"}) {
		t.Errorf("qualifier on union = %v", got)
	}
}

func TestEvalEqualityOnElementWithMixedChildren(t *testing.T) {
	// Text() of an element concatenates only its direct text children.
	doc := xmltree.NewDocument(xmltree.E("r",
		xmltree.E("a", xmltree.Txt("he"), xmltree.E("b"), xmltree.Txt("llo")),
		xmltree.E("a", xmltree.Txt("other")),
	))
	got := EvalDoc(MustParse(`a[. = "hello"]`), doc)
	if len(got) != 1 {
		t.Fatalf("mixed-content equality matched %d nodes", len(got))
	}
}

func TestEvalSelfEquality(t *testing.T) {
	doc := hospitalDoc()
	got := evalStrings(t, doc, `//wardNo[. = "7"]`)
	if !reflect.DeepEqual(got, []string{"7"}) {
		t.Errorf("self equality = %v", got)
	}
}

func TestEvalStepsFromTextNodes(t *testing.T) {
	doc := hospitalDoc()
	// Steps below text nodes yield nothing, qualifiers on them still work.
	if got := EvalDoc(MustParse("//name/text()/*"), doc); len(got) != 0 {
		t.Errorf("children of text = %d", len(got))
	}
	if got := EvalDoc(MustParse("//name/text()/anything"), doc); len(got) != 0 {
		t.Errorf("label under text = %d", len(got))
	}
	got := EvalDoc(MustParse(`//name/text()[. = "Carol"]`), doc)
	if len(got) != 1 || got[0].Kind != xmltree.TextNode {
		t.Errorf("qualifier on text node = %v", got)
	}
}

func TestEvalUnionDocOrderInterleaving(t *testing.T) {
	doc := hospitalDoc()
	// Union operands arrive in document order even when the right operand
	// matches earlier nodes.
	got := EvalDoc(MustParse("//wardNo | //name"), doc)
	for i := 1; i < len(got); i++ {
		if got[i-1].Ord() >= got[i].Ord() {
			t.Fatalf("union results out of document order at %d", i)
		}
	}
	if len(got) != 8 { // 5 names + 3 wardNos
		t.Errorf("union size = %d, want 8", len(got))
	}
}

func TestEvalDeepDescendChain(t *testing.T) {
	doc := hospitalDoc()
	got := evalStrings(t, doc, "//dept//patient//bill")
	if !reflect.DeepEqual(got, []string{"900", "100", "70"}) {
		t.Errorf("deep descend chain = %v", got)
	}
	// //. at a leaf includes only the leaf subtree.
	bills := EvalDoc(MustParse("//bill"), doc)
	sub := mustEvalAt(t, MustParse("//."), bills[:1])
	if len(sub) != 2 { // bill element + its text
		t.Errorf("//. at leaf = %d nodes", len(sub))
	}
}

func TestEvalQualifierNeverMovesContext(t *testing.T) {
	doc := hospitalDoc()
	// p[q] returns p's nodes, not q's.
	got := EvalDoc(MustParse("//patient[treatment/regular/medication]"), doc)
	for _, n := range got {
		if n.Label != "patient" {
			t.Errorf("qualifier moved context to %s", n.Label)
		}
	}
	if len(got) != 2 {
		t.Errorf("qualified patients = %d", len(got))
	}
}

func TestEvalEmptyContexts(t *testing.T) {
	if got := mustEvalAt(t, MustParse("a"), nil); len(got) != 0 {
		t.Errorf("empty context returned %d nodes", len(got))
	}
}

func TestEvalWildcardSkipsText(t *testing.T) {
	doc := xmltree.NewDocument(xmltree.E("r", xmltree.Txt("loose"), xmltree.E("a")))
	got := EvalDoc(MustParse("*"), doc)
	if len(got) != 1 || got[0].Label != "a" {
		t.Errorf("wildcard = %v", got)
	}
	// But text() selects it.
	got = EvalDoc(MustParse("text()"), doc)
	if len(got) != 1 || got[0].Kind != xmltree.TextNode {
		t.Errorf("text() = %v", got)
	}
}

func TestEvalDescendUnionDedup(t *testing.T) {
	doc := hospitalDoc()
	// Overlapping context sets must not duplicate descendants.
	a := EvalDoc(MustParse("(. | dept)//patient"), doc)
	b := EvalDoc(MustParse("//patient"), doc)
	if len(a) != len(b) {
		t.Errorf("overlapping contexts: %d vs %d", len(a), len(b))
	}
}
