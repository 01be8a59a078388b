package xpath

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// TestEvalErrUnboundVariable: the error-returning variants must reject
// unbound $variables instead of panicking — this is the path untrusted
// query strings take through core.Engine.
func TestEvalErrUnboundVariable(t *testing.T) {
	doc := hospitalDoc()
	p := MustParse("//patient[wardNo = $w]/name")
	if _, err := EvalDocErr(p, doc); err == nil || !strings.Contains(err.Error(), "$w") {
		t.Errorf("EvalDocErr = %v, want unbound-variable error naming $w", err)
	}
	if _, err := EvalAtCtx(nil, p, []*xmltree.Node{doc.Root}); err == nil {
		t.Errorf("EvalAtCtx accepted unbound variable")
	}
	q := MustParseQual("wardNo = $x")
	if _, err := EvalQualErr(q, doc.Root); err == nil || !strings.Contains(err.Error(), "$x") {
		t.Errorf("EvalQualErr = %v", err)
	}
}

// TestEvalErrUnboundVariableInBooleans: the error must surface through
// and/or/not connectives, not be masked by short-circuiting on the
// other operand.
func TestEvalErrUnboundVariableInBooleans(t *testing.T) {
	doc := hospitalDoc()
	for _, q := range []string{
		"//patient[wardNo = $w and name]/name",
		"//patient[name and wardNo = $w]/name",
		"//patient[not(wardNo = $w)]/name",
	} {
		if _, err := EvalDocErr(MustParse(q), doc); err == nil {
			t.Errorf("%q: unbound variable not reported", q)
		}
	}
}

// TestEvalErrMatchesEval: on well-formed queries the error variants are
// the same evaluator.
func TestEvalErrMatchesEval(t *testing.T) {
	doc := hospitalDoc()
	for _, q := range []string{"//patient/name", "dept/patientInfo/patient[treatment]", "(//bill | //nurse)"} {
		p := MustParse(q)
		want := EvalDoc(p, doc)
		got, err := EvalDocErr(p, doc)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: EvalDocErr differs from EvalDoc", q)
		}
	}
}

// TestUnionOverlapNoDuplicates: overlapping union branches under a
// qualifier (and under further steps) must not leak duplicate nodes —
// the regression the eager SortDocOrder in the Union case guards.
func TestUnionOverlapNoDuplicates(t *testing.T) {
	doc := hospitalDoc()
	// Both branches select the same patients; the left is a strict
	// superset of the right.
	for _, q := range []string{
		"(//patient | dept/patientInfo/patient)[name]",
		"(//patient | //patient)/name",
		"(//patient | dept/patientInfo/patient)/treatment//bill",
		"//dept[(clinicalTrial//patient | patientInfo/patient)]",
	} {
		got := EvalDoc(MustParse(q), doc)
		seen := make(map[*xmltree.Node]bool)
		for _, n := range got {
			if seen[n] {
				t.Errorf("%q: node %s returned twice", q, n.Path())
			}
			seen[n] = true
		}
	}
	// Concrete count check: the named patients (Carol, Alice, Bob) appear
	// once each even though two of them match both branches.
	got := EvalDoc(MustParse("(//patient | dept/patientInfo/patient)[name]/name"), doc)
	if len(got) != 3 {
		t.Errorf("overlapping union under qualifier returned %d names: %v", len(got), texts(got))
	}
}

// TestUnionOverlapIndexed: the indexed evaluator must agree.
func TestUnionOverlapIndexed(t *testing.T) {
	doc := hospitalDoc()
	idx := NewIndex(doc)
	q := MustParse("(//patient | dept/patientInfo/patient)[name]/name")
	want := EvalDoc(q, doc)
	got := EvalIndexed(q, idx)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("indexed union overlap: %v vs %v", texts(got), texts(want))
	}
}
