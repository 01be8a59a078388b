package policy

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/xmltree"
)

// doctorSpec: doctors see everything except billing details.
const doctorSpec = `
ann(trial, bill) = N
ann(regular, bill) = N
`

// auditorSpec: auditors see only billing information.
const auditorSpec = `
ann(hospital, dept) = Y
ann(dept, patientInfo) = N
ann(dept, clinicalTrial) = N
ann(dept, staffInfo) = N
ann(trial, bill) = Y
ann(regular, bill) = Y
`

func hospitalRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry(dtds.Hospital())
	if _, err := r.Define("nurse", dtds.NurseSpecSource); err != nil {
		t.Fatalf("Define(nurse): %v", err)
	}
	if _, err := r.Define("doctor", doctorSpec); err != nil {
		t.Fatalf("Define(doctor): %v", err)
	}
	if _, err := r.Define("auditor", auditorSpec); err != nil {
		t.Fatalf("Define(auditor): %v", err)
	}
	return r
}

func ward() *xmltree.Document {
	e, tx := xmltree.E, xmltree.T
	return xmltree.NewDocument(e("hospital",
		e("dept",
			e("clinicalTrial",
				e("patientInfo",
					e("patient", tx("name", "Carol"), tx("wardNo", "6"),
						e("treatment", e("trial", tx("bill", "900")))))),
			e("patientInfo",
				e("patient", tx("name", "Alice"), tx("wardNo", "6"),
					e("treatment", e("regular", tx("bill", "100"), tx("medication", "aspirin"))))),
			e("staffInfo", e("staff", e("nurse", tx("name", "Nina")))),
		),
		e("dept",
			e("clinicalTrial", e("patientInfo")),
			e("patientInfo",
				e("patient", tx("name", "Bob"), tx("wardNo", "7"),
					e("treatment", e("regular", tx("bill", "70"), tx("medication", "ibuprofen"))))),
			e("staffInfo", e("staff", e("doctor", tx("name", "Dan")))),
		),
	))
}

func texts(nodes []*xmltree.Node) []string {
	var out []string
	for _, n := range nodes {
		out = append(out, n.Text())
	}
	return out
}

func TestRegistryClassesSeeDifferentData(t *testing.T) {
	r := hospitalRegistry(t)
	doc := ward()

	// Ward-6 nurse: Carol and Alice.
	nodes, err := r.Query("nurse", map[string]string{"wardNo": "6"}, doc, "//patient/name")
	if err != nil {
		t.Fatalf("nurse query: %v", err)
	}
	if got := texts(nodes); !reflect.DeepEqual(got, []string{"Carol", "Alice"}) {
		t.Errorf("ward-6 nurse sees %v", got)
	}

	// Ward-7 nurse: Bob only, through the same class definition.
	nodes, err = r.Query("nurse", map[string]string{"wardNo": "7"}, doc, "//patient/name")
	if err != nil {
		t.Fatalf("nurse query: %v", err)
	}
	if got := texts(nodes); !reflect.DeepEqual(got, []string{"Bob"}) {
		t.Errorf("ward-7 nurse sees %v", got)
	}

	// Doctors see all patients and the clinical-trial structure, but no
	// bills.
	nodes, err = r.Query("doctor", nil, doc, "//patient/name")
	if err != nil {
		t.Fatalf("doctor query: %v", err)
	}
	if got := texts(nodes); !reflect.DeepEqual(got, []string{"Carol", "Alice", "Bob"}) {
		t.Errorf("doctor sees %v", got)
	}
	nodes, err = r.Query("doctor", nil, doc, "//bill")
	if err != nil {
		t.Fatalf("doctor bill query: %v", err)
	}
	if len(nodes) != 0 {
		t.Errorf("doctor sees %d bills", len(nodes))
	}
	nodes, err = r.Query("doctor", nil, doc, "//clinicalTrial//name")
	if err != nil {
		t.Fatalf("doctor trial query: %v", err)
	}
	if got := texts(nodes); !reflect.DeepEqual(got, []string{"Carol"}) {
		t.Errorf("doctor trial patients = %v", got)
	}

	// Auditors see bills only.
	nodes, err = r.Query("auditor", nil, doc, "//bill")
	if err != nil {
		t.Fatalf("auditor query: %v", err)
	}
	if got := texts(nodes); !reflect.DeepEqual(got, []string{"900", "100", "70"}) {
		t.Errorf("auditor sees bills %v", got)
	}
	nodes, err = r.Query("auditor", nil, doc, "//name | //patient | //medication")
	if err != nil {
		t.Fatalf("auditor name query: %v", err)
	}
	if len(nodes) != 0 {
		t.Errorf("auditor sees %d non-billing nodes", len(nodes))
	}
}

func TestRegistryViewDTDsDiffer(t *testing.T) {
	r := hospitalRegistry(t)
	nurse, err := r.ViewDTD("nurse", map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("ViewDTD(nurse): %v", err)
	}
	doctor, err := r.ViewDTD("doctor", nil)
	if err != nil {
		t.Fatalf("ViewDTD(doctor): %v", err)
	}
	if nurse.Has("clinicalTrial") {
		t.Errorf("nurse view exposes clinicalTrial")
	}
	if !doctor.Has("clinicalTrial") {
		t.Errorf("doctor view hides clinicalTrial")
	}
	if doctor.Has("bill") {
		t.Errorf("doctor view exposes bill")
	}
}

func TestRegistryEngineCaching(t *testing.T) {
	r := hospitalRegistry(t)
	c, ok := r.Class("nurse")
	if !ok {
		t.Fatalf("nurse class missing")
	}
	e1, err := c.Engine(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	e2, err := c.Engine(map[string]string{"wardNo": "6"})
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	if e1 != e2 {
		t.Errorf("same binding not cached")
	}
	e3, err := c.Engine(map[string]string{"wardNo": "7"})
	if err != nil {
		t.Fatalf("Engine: %v", err)
	}
	if e1 == e3 {
		t.Errorf("different bindings share an engine")
	}
}

func TestRegistryErrors(t *testing.T) {
	r := hospitalRegistry(t)
	if _, err := r.Define("nurse", doctorSpec); err == nil {
		t.Errorf("duplicate class accepted")
	}
	if _, err := r.Define("", doctorSpec); err == nil {
		t.Errorf("empty class name accepted")
	}
	if _, err := r.Define("bad", "ann(nosuch, dept) = N\n"); err == nil {
		t.Errorf("bad annotations accepted")
	}
	if _, err := r.Query("ghost", nil, ward(), "//name"); err == nil {
		t.Errorf("unknown class accepted")
	}
	if _, err := r.Query("nurse", nil, ward(), "//name"); err == nil {
		t.Errorf("missing parameter accepted")
	}
	if _, err := r.ViewDTD("ghost", nil); err == nil {
		t.Errorf("unknown class accepted by ViewDTD")
	}
	other := NewRegistry(dtds.Adex())
	if _, err := other.DefineSpec("x", dtds.NurseSpec()); err == nil {
		t.Errorf("cross-DTD spec accepted")
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"nurse", "doctor", "auditor"}) {
		t.Errorf("Names = %v", got)
	}
	if c, _ := r.Class("nurse"); !reflect.DeepEqual(c.Params(), []string{"wardNo"}) {
		t.Errorf("Params = %v", c.Params())
	}
}

// TestRegistryBumpEpochInvalidatesAnswers: after a registry-wide epoch
// bump (a document swap), no cached answer survives — a document
// mutated in place is re-answered from its new content.
func TestRegistryBumpEpochInvalidatesAnswers(t *testing.T) {
	r := NewRegistryWithConfig(dtds.Hospital(), 0, core.Config{AnswerCache: true})
	if _, err := r.Define("nurse", dtds.NurseSpecSource); err != nil {
		t.Fatal(err)
	}
	doc := ward()
	params := map[string]string{"wardNo": "6"}
	before, err := r.Query("nurse", params, doc, "//patient/name")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(texts(before), []string{"Carol", "Alice"}) {
		t.Fatalf("pre-swap answer = %v", texts(before))
	}
	// Second ask is served from the answer cache.
	if _, err := r.Query("nurse", params, doc, "//patient/name"); err != nil {
		t.Fatal(err)
	}
	c, _ := r.Class("nurse")
	e, err := c.Engine(params)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats().AnswerCache; s.Hits != 1 {
		t.Fatalf("warm-up did not hit the cache: %+v", s)
	}

	// Swap the document in place: Bob moves into ward 6, so the second
	// dept becomes visible to the ward-6 nurse.
	moved := false
	for _, n := range doc.Root.Children {
		for _, pi := range n.Children {
			for _, p := range pi.Children {
				for _, f := range p.Children {
					if f.Label == "wardNo" && f.Text() == "7" && p.Children[0].Text() == "Bob" {
						f.Children[0].Data = "6"
						moved = true
					}
				}
			}
		}
	}
	if !moved {
		t.Fatal("did not find Bob's wardNo to mutate")
	}
	r.BumpEpoch()
	if got := e.Epoch(); got != 1 {
		t.Errorf("engine epoch after registry bump = %d", got)
	}
	after, err := r.Query("nurse", params, doc, "//patient/name")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(texts(after), []string{"Carol", "Alice", "Bob"}) {
		t.Errorf("post-swap answer = %v, want [Carol Alice Bob] — a pre-swap answer leaked", texts(after))
	}
}

// TestBindingKey pins the engine-cache key bytes: "k=v;" per parameter,
// sorted by name, for 0, 1 and several parameters.
func TestBindingKey(t *testing.T) {
	for _, c := range []struct {
		params map[string]string
		want   string
	}{
		{nil, ""},
		{map[string]string{}, ""},
		{map[string]string{"wardNo": "1"}, "wardNo=1;"},
		{map[string]string{"z": "3", "a": "1", "m": "two words"}, "a=1;m=two words;z=3;"},
	} {
		if got := bindingKey(c.params); got != c.want {
			t.Errorf("bindingKey(%v) = %q, want %q", c.params, got, c.want)
		}
	}
	one := map[string]string{"wardNo": "1"}
	if a := testing.AllocsPerRun(100, func() { _ = bindingKey(one) }); a > 1 {
		t.Errorf("single-parameter bindingKey: %v allocs, want at most 1", a)
	}
}
