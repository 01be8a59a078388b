package xpath_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dtds"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// scanPlan is the shape of a selective view query's plan over the
// hospital nurse view for ward 1: the rewrite's dept[…wardNo = "1"]
// prefix, then a name comparison at every patient.
const scanPlan = `(dept[patientInfo/patient/wardNo = "1"]/clinicalTrial/patientInfo | ` +
	`dept[patientInfo/patient/wardNo = "1"]/patientInfo)/patient[name = "%s"]/name`

// TestQualifiedScanAllocsIndependentOfDocSize: the node-local qualifier
// walk allocates nothing per candidate, so evaluating a qualifier-gated
// plan costs the same number of allocations on the 10,254-node hospital
// document as on the 315-node one.
func TestQualifiedScanAllocsIndependentOfDocSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop sets at random")
	}
	allocs := func(doc *xmltree.Document) float64 {
		t.Helper()
		// Compare against a name the document really holds, so the
		// answer is non-empty on both documents.
		first, err := xpath.EvalDocErr(xpath.MustParse(`dept[patientInfo/patient/wardNo = "1"]/patientInfo/patient/name`), doc)
		if err != nil || len(first) == 0 {
			t.Fatalf("no ward-1 patient in a %d-node document (err %v)", doc.Size(), err)
		}
		p := xpath.MustParse(fmt.Sprintf(scanPlan, first[0].Text()))
		idx := xpath.NewIndex(doc)
		ctx := context.Background()
		out, ticks, err := xpath.EvalIndexedCtxCounted(ctx, p, idx)
		if err != nil || len(out) == 0 || ticks == 0 {
			t.Fatalf("%d-node document: %d nodes, %d ticks, err %v", doc.Size(), len(out), ticks, err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, _, err := xpath.EvalIndexedCtxCounted(ctx, p, idx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := dtds.GenerateHospital(1, 8), dtds.GenerateHospital(1, 48)
	if small.Size() != 315 || large.Size() != 10254 {
		t.Fatalf("hospital documents have %d and %d nodes, want 315 and 10254", small.Size(), large.Size())
	}
	a, b := allocs(small), allocs(large)
	t.Logf("allocs per evaluation: %v on %d nodes, %v on %d nodes", a, small.Size(), b, large.Size())
	if a != b {
		t.Errorf("allocs per evaluation grow with the document: %v on %d nodes, %v on %d nodes",
			a, small.Size(), b, large.Size())
	}
}

// TestQualifierWalkNestedDescendLinear: a qualifier whose path chains
// several // steps, none of which finds a witness, visits each node
// once per // step. Each step's continuation remembers the last subtree
// it searched in vain and skips the nodes nested in it, so on a deep
// chain the work is linear in the document, not a power of its depth.
func TestQualifierWalkNestedDescendLinear(t *testing.T) {
	doc := chainDoc(1000)
	doc.Compact()
	for q, steps := range map[string]int{
		`.[.//s//leaf = "absent"]`:      2,
		`.[.//s//s//leaf = "absent"]`:   3,
		`.[.//*//*//leaf = "absent"]`:   3,
		`.[.//s/s//s//leaf = "absent"]`: 3,
	} {
		out, ticks, err := xpath.EvalDocCtxCounted(context.Background(), xpath.MustParse(q), doc)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: %d nodes, err %v", q, len(out), err)
		}
		if limit := uint64((steps + 1) * doc.Size()); ticks > limit {
			t.Errorf("%s visited %d nodes on a %d-node chain, want at most %d", q, ticks, doc.Size(), limit)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
