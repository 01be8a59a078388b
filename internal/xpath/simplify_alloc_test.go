package xpath_test

import (
	"testing"

	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xpath"
)

// TestSimplifyAllocFreeOnPlans: rewrite and optimize end by simplifying
// their output, so a plan they return is already simplified, and
// simplifying it again must hand back the same tree without allocating.
func TestSimplifyAllocFreeOnPlans(t *testing.T) {
	spec, err := dtds.NurseSpec().Bind(map[string]string{"wardNo": "1"})
	if err != nil {
		t.Fatal(err)
	}
	view, err := secview.Derive(spec)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.ForView(view)
	if err != nil {
		t.Fatal(err)
	}
	opt := optimize.New(dtds.Hospital())
	for _, q := range []string{
		"//patient[.//bill]//name",
		"//patient[name = \"x\" or .//bill = \"y\"]/name | //patientInfo/patient/wardNo",
		"//dept//patient[not(treatment/medication)]/wardNo",
	} {
		plan, err := rw.Rewrite(xpath.MustParse(q))
		if err != nil {
			t.Fatalf("Rewrite(%s): %v", q, err)
		}
		for name, p := range map[string]xpath.Path{"rewritten": plan, "optimized": opt.Optimize(plan)} {
			if xpath.Size(p) < 10 {
				t.Fatalf("%s plan of %s is only %s", name, q, xpath.String(p))
			}
			if n := testing.AllocsPerRun(100, func() { _ = xpath.Simplify(p) }); n != 0 {
				t.Errorf("Simplify on the %s plan of %s: %v allocs, want 0", name, q, n)
			}
		}
	}
}
