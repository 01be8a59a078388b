package benchtable

import (
	"strings"
	"testing"
)

// TestRunSmall runs the full Table 1 pipeline on tiny data sets and pins
// the qualitative shape the paper reports.
func TestRunSmall(t *testing.T) {
	report, err := Run(Config{
		DataSets: []DataSet{{Name: "T1", MaxRepeat: 60}, {Name: "T2", MaxRepeat: 200}},
		Repeats:  1,
		Verify:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(report.Cells))
	}
	if report.Sizes["T1"] >= report.Sizes["T2"] {
		t.Errorf("data sets do not scale: %v", report.Sizes)
	}
	byQuery := make(map[string][]Cell)
	for _, c := range report.Cells {
		byQuery[c.Query] = append(byQuery[c.Query], c)
	}
	// Q1/Q2: optimizer cannot improve (Table 1's "-").
	for _, q := range []string{"Q1", "Q2"} {
		for _, c := range byQuery[q] {
			if c.OptimizeDiffers {
				t.Errorf("%s/%s: optimizer changed the query: %s -> %s", q, c.DataSet, c.RewrittenQuery, c.OptimizedQuery)
			}
		}
	}
	// Q3: optimizer drops the co-existence qualifier.
	for _, c := range byQuery["Q3"] {
		if !c.OptimizeDiffers || c.EmptyAfterOptimize {
			t.Errorf("Q3/%s: expected a non-empty improvement, got %q", c.DataSet, c.OptimizedQuery)
		}
		if strings.Contains(c.OptimizedQuery, "[") {
			t.Errorf("Q3/%s: qualifier not removed: %q", c.DataSet, c.OptimizedQuery)
		}
	}
	// Q4: proved empty.
	for _, c := range byQuery["Q4"] {
		if !c.EmptyAfterOptimize {
			t.Errorf("Q4/%s: not proved empty: %q", c.DataSet, c.OptimizedQuery)
		}
		if c.Results != 0 {
			t.Errorf("Q4/%s: returned %d results", c.DataSet, c.Results)
		}
	}
	// Rewritten queries are precise root paths, not descendant scans.
	for _, c := range report.Cells {
		if strings.Contains(c.RewrittenQuery, "//") {
			t.Errorf("%s/%s: rewritten query still has '//': %q", c.Query, c.DataSet, c.RewrittenQuery)
		}
	}
	out := report.Format()
	for _, want := range []string{"Query", "T1: ", "Q4", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestNaiveSlowerOnLargerData: the headline shape — naive pays for the
// descendant scans and the gap grows with document size.
func TestNaiveSlowerOnLargerData(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	report, err := Run(Config{
		DataSets: []DataSet{{Name: "M", MaxRepeat: 1500}},
		Repeats:  3,
		Verify:   false,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range report.Cells {
		if c.Naive <= c.Rewrite {
			t.Errorf("%s: naive (%v) not slower than rewrite (%v)", c.Query, c.Naive, c.Rewrite)
		}
	}
}

// TestRunIndexed: the indexed-evaluator variant preserves verification
// and the qualitative shape.
func TestRunIndexed(t *testing.T) {
	report, err := Run(Config{
		DataSets: []DataSet{{Name: "T", MaxRepeat: 120}},
		Repeats:  1,
		Verify:   true,
		Indexed:  true,
	})
	if err != nil {
		t.Fatalf("Run(indexed): %v", err)
	}
	if len(report.Cells) != 4 {
		t.Fatalf("cells = %d", len(report.Cells))
	}
	for _, c := range report.Cells {
		if c.Query == "Q4" && !c.EmptyAfterOptimize {
			t.Errorf("Q4 not proved empty under indexed run")
		}
	}
}

// TestTable1ShapeOnVisits gates Table 1's shape on the evaluator's
// nodes-visited counts, which are deterministic where wall times are
// not: naive visits at least 10× what rewrite does, optimize never
// visits more than rewrite, and Q4's optimized plan is proved empty.
func TestTable1ShapeOnVisits(t *testing.T) {
	report, err := Run(Config{
		DataSets: []DataSet{{Name: "S", MaxRepeat: 400}, {Name: "L", MaxRepeat: 1500}},
		Repeats:  1,
		Seed:     1,
		Verify:   true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(report.Cells))
	}
	for _, c := range report.Cells {
		t.Logf("%s/%s (%d nodes): naive %d, rewrite %d, optimize %d visits",
			c.Query, c.DataSet, c.DocNodes, c.NaiveVisits, c.RewriteVisits, c.OptimizeVisits)
		if c.RewriteVisits == 0 || c.NaiveVisits < 10*c.RewriteVisits {
			t.Errorf("%s/%s: naive %d visits, want ≥ 10× rewrite's %d", c.Query, c.DataSet, c.NaiveVisits, c.RewriteVisits)
		}
		if c.OptimizeVisits > c.RewriteVisits {
			t.Errorf("%s/%s: optimize %d visits > rewrite %d", c.Query, c.DataSet, c.OptimizeVisits, c.RewriteVisits)
		}
		if c.Query == "Q4" && !c.EmptyAfterOptimize {
			t.Errorf("Q4/%s: optimized plan not proved empty: %q", c.DataSet, c.OptimizedQuery)
		}
	}
}
