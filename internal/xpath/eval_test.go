package xpath

import (
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

// hospitalDoc builds a small hospital instance with two departments, one
// of which runs a clinical trial.
func hospitalDoc() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	return xmltree.NewDocument(e("hospital",
		e("dept",
			e("clinicalTrial",
				e("patientInfo",
					e("patient", tx("name", "Carol"), tx("wardNo", "6"),
						e("treatment", e("trial", tx("bill", "900")))),
				),
			),
			e("patientInfo",
				e("patient", tx("name", "Alice"), tx("wardNo", "6"),
					e("treatment", e("regular", tx("bill", "100"), tx("medication", "aspirin")))),
			),
			e("staffInfo",
				e("staff", e("nurse", tx("name", "Nina")))),
		),
		e("dept",
			e("clinicalTrial", e("patientInfo")),
			e("patientInfo",
				e("patient", tx("name", "Bob"), tx("wardNo", "7"),
					e("treatment", e("regular", tx("bill", "70"), tx("medication", "ibuprofen")))),
			),
			e("staffInfo",
				e("staff", e("doctor", tx("name", "Dan")))),
		),
	))
}

func names(nodes []*xmltree.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Label)
	}
	return out
}

func texts(nodes []*xmltree.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Text())
	}
	return out
}

func evalStrings(t *testing.T, doc *xmltree.Document, query string) []string {
	t.Helper()
	p, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	return texts(EvalDoc(p, doc))
}

func TestEvalChildAndDescendant(t *testing.T) {
	doc := hospitalDoc()
	if got := evalStrings(t, doc, "dept/patientInfo/patient/name"); !reflect.DeepEqual(got, []string{"Alice", "Bob"}) {
		t.Errorf("child path = %v", got)
	}
	if got := evalStrings(t, doc, "//patient/name"); !reflect.DeepEqual(got, []string{"Carol", "Alice", "Bob"}) {
		t.Errorf("descendant path = %v", got)
	}
	// Example 1.1: the difference of p1 and p2 identifies trial patients.
	p1 := evalStrings(t, doc, "//dept//patientInfo/patient/name")
	p2 := evalStrings(t, doc, "//dept/patientInfo/patient/name")
	if !reflect.DeepEqual(p1, []string{"Carol", "Alice", "Bob"}) || !reflect.DeepEqual(p2, []string{"Alice", "Bob"}) {
		t.Errorf("inference-attack queries: p1=%v p2=%v", p1, p2)
	}
}

func TestEvalWildcardUnionSelf(t *testing.T) {
	doc := hospitalDoc()
	p := MustParse("dept/*")
	got := names(EvalDoc(p, doc))
	want := []string{"clinicalTrial", "patientInfo", "staffInfo", "clinicalTrial", "patientInfo", "staffInfo"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wildcard = %v", got)
	}
	p = MustParse("(clinicalTrial | .)/patientInfo")
	dept := doc.Root.Children[0]
	res := Eval(p, dept)
	if len(res) != 2 {
		t.Fatalf("(clinicalTrial | .)/patientInfo returned %d nodes, want 2", len(res))
	}
	if res[0].Ord() >= res[1].Ord() {
		t.Errorf("results not in document order")
	}
	if got := names(Eval(MustParse("."), dept)); !reflect.DeepEqual(got, []string{"dept"}) {
		t.Errorf("self = %v", got)
	}
}

func TestEvalQualifiers(t *testing.T) {
	doc := hospitalDoc()
	if got := evalStrings(t, doc, `//patient[wardNo = "6"]/name`); !reflect.DeepEqual(got, []string{"Carol", "Alice"}) {
		t.Errorf("equality qualifier = %v", got)
	}
	if got := evalStrings(t, doc, `//patient[treatment/regular]/name`); !reflect.DeepEqual(got, []string{"Alice", "Bob"}) {
		t.Errorf("path qualifier = %v", got)
	}
	if got := evalStrings(t, doc, `//patient[not(treatment/regular)]/name`); !reflect.DeepEqual(got, []string{"Carol"}) {
		t.Errorf("negation = %v", got)
	}
	if got := evalStrings(t, doc, `//patient[wardNo = "7" or treatment/trial]/name`); !reflect.DeepEqual(got, []string{"Carol", "Bob"}) {
		t.Errorf("disjunction = %v", got)
	}
	if got := evalStrings(t, doc, `//patient[wardNo = "6" and treatment//medication]/name`); !reflect.DeepEqual(got, []string{"Alice"}) {
		t.Errorf("conjunction = %v", got)
	}
	if got := evalStrings(t, doc, `//dept[staffInfo/staff/doctor]/patientInfo/patient/name`); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("dept qualifier = %v", got)
	}
}

func TestEvalEmptyAndNoMatch(t *testing.T) {
	doc := hospitalDoc()
	if got := EvalDoc(Empty{}, doc); len(got) != 0 {
		t.Errorf("∅ returned %v", names(got))
	}
	if got := EvalDoc(MustParse("nonexistent"), doc); len(got) != 0 {
		t.Errorf("missing label returned %v", names(got))
	}
	if got := EvalDoc(MustParse("dept/∅/name"), doc); len(got) != 0 {
		t.Errorf("path through ∅ returned %v", names(got))
	}
}

func TestEvalTextStep(t *testing.T) {
	doc := hospitalDoc()
	got := evalStrings(t, doc, "//name/text()")
	if len(got) != 5 {
		t.Fatalf("text() returned %d nodes, want 5", len(got))
	}
	if got[0] != "Carol" {
		t.Errorf("first text = %q", got[0])
	}
}

func TestEvalAttr(t *testing.T) {
	a := xmltree.A(xmltree.E("x"), "accessibility", "1")
	b := xmltree.A(xmltree.E("x"), "accessibility", "0")
	doc := xmltree.NewDocument(xmltree.E("r", a, b, xmltree.E("x")))
	got := EvalDoc(MustParse(`x[@accessibility = "1"]`), doc)
	if len(got) != 1 || got[0] != a {
		t.Errorf("attr qualifier selected %d nodes", len(got))
	}
}

func TestEvalDedupAndOrder(t *testing.T) {
	doc := hospitalDoc()
	// //patientInfo | dept/patientInfo overlaps; results must be dedup'd
	// and in document order.
	got := EvalDoc(MustParse("//patientInfo | dept/patientInfo"), doc)
	if len(got) != 4 {
		t.Fatalf("union returned %d nodes, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Ord() >= got[i].Ord() {
			t.Errorf("results out of order at %d", i)
		}
	}
	// //dept//patientInfo must not duplicate via multiple context nodes.
	got = EvalDoc(MustParse("//dept//patientInfo"), doc)
	if len(got) != 4 {
		t.Errorf("//dept//patientInfo returned %d nodes, want 4", len(got))
	}
}

func TestEvalDescendantOrSelfIncludesContext(t *testing.T) {
	doc := hospitalDoc()
	// Per the paper, queries are evaluated at a context node (the root
	// element for whole-document queries): //p is descendant-or-self
	// followed by p, so //hospital at the root finds no *child* labeled
	// hospital, while //dept includes depts at any depth.
	if got := EvalDoc(MustParse("//hospital"), doc); len(got) != 0 {
		t.Errorf("//hospital = %v", names(got))
	}
	if got := EvalDoc(MustParse("//dept"), doc); len(got) != 2 {
		t.Errorf("//dept returned %d nodes, want 2", len(got))
	}
	// .//patient ≡ //patient here.
	if got := evalStrings(t, doc, ".//patient/name"); len(got) != 3 {
		t.Errorf(".//patient = %v", got)
	}
}

func TestEvalVariablePanicsUnbound(t *testing.T) {
	doc := hospitalDoc()
	p := MustParse("//patient[wardNo = $w]")
	defer func() {
		if recover() == nil {
			t.Errorf("unbound variable did not panic")
		}
	}()
	EvalDoc(p, doc)
}

func TestBindVars(t *testing.T) {
	p := MustParse("//patient[wardNo = $w]/name")
	if got := Vars(p); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("Vars = %v", got)
	}
	bound, err := BindVars(p, map[string]string{"w": "7"})
	if err != nil {
		t.Fatalf("BindVars: %v", err)
	}
	if got := texts(EvalDoc(bound, hospitalDoc())); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("bound query = %v", got)
	}
	if _, err := BindVars(p, nil); err == nil {
		t.Errorf("missing binding accepted")
	}
}

// mustEvalAt evaluates at a context set, failing the test on error.
func mustEvalAt(t *testing.T, p Path, ctx []*xmltree.Node) []*xmltree.Node {
	t.Helper()
	out, err := EvalAtCtx(nil, p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEvalAtMultipleContexts(t *testing.T) {
	doc := hospitalDoc()
	depts := EvalDoc(MustParse("dept"), doc)
	if len(depts) != 2 {
		t.Fatalf("depts = %d", len(depts))
	}
	got := mustEvalAt(t, MustParse("patientInfo/patient/name"), depts)
	if !reflect.DeepEqual(texts(got), []string{"Alice", "Bob"}) {
		t.Errorf("EvalAt = %v", texts(got))
	}
}
