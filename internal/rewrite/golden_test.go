package rewrite

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/secview"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current code")

const planGolden = "testdata/plans.golden"

// goldenFixture is one security view whose plans the golden pins.
type goldenFixture struct {
	name  string
	view  *secview.View
	rw    *Rewriter
	fixed []string
	// seeds is the number of randViewPath queries (seeds 1..seeds).
	seeds int
}

func goldenFixtures(t *testing.T) []goldenFixture {
	t.Helper()
	derive := func(s *access.Spec, params map[string]string) *secview.View {
		if params != nil {
			var err error
			if s, err = s.Bind(params); err != nil {
				t.Fatalf("Bind: %v", err)
			}
		}
		v, err := secview.Derive(s)
		if err != nil {
			t.Fatalf("Derive: %v", err)
		}
		return v
	}
	flat := func(v *secview.View) *Rewriter {
		r, err := ForView(v)
		if err != nil {
			t.Fatalf("ForView: %v", err)
		}
		return r
	}
	unfold := func(v *secview.View, h int) *Rewriter {
		r, err := ForViewWithHeight(v, h)
		if err != nil {
			t.Fatalf("ForViewWithHeight: %v", err)
		}
		return r
	}
	hospital := derive(dtds.NurseSpec(), map[string]string{"wardNo": "1"})
	adex := derive(dtds.AdexSpec(), nil)
	fig7 := derive(dtds.Fig7Spec(), nil)
	forum := derive(dtds.ForumGuestSpec(), nil)
	property := nurseView(t)
	var adexQueries []string
	for _, q := range dtds.AdexQueries {
		adexQueries = append(adexQueries, q)
	}
	sort.Strings(adexQueries)
	return []goldenFixture{
		{name: "hospital", view: hospital, rw: flat(hospital), seeds: 120, fixed: []string{
			".", "*", "//*", "//.", "//text()", "//patient", "//patient/name",
			"//patient[.//bill]//name", "//patient[name = \"x\" or .//bill = \"y\"]/name",
			"//dept//patient[not(treatment/medication)]/wardNo", "dept/patientInfo/patient[wardNo = \"1\"]",
			"//patient[treatment//medication = \"m\"]/treatment//bill | //patientInfo/patient/name",
		}},
		{name: "adex", view: adex, rw: flat(adex), seeds: 80, fixed: append(adexQueries,
			"//*", "//real-estate[house]//r-e.warranty", "buyer-info[contact-info and company-id]"),
		},
		{name: "fig7", view: fig7, rw: flat(fig7), seeds: 80, fixed: []string{
			".", "b", "a", "a/b", "//b", "//a", "//a[b = \"3\"]", "a/a/b", "//a[not(a)]", "//text()",
		}},
		{name: "fig7-unfold-5", view: fig7, rw: unfold(fig7, 5), seeds: 40, fixed: []string{
			"//b", "//a[b = \"3\"]", "a/a/b", "//a[not(a)]",
		}},
		{name: "forum", view: forum, rw: flat(forum), seeds: 80, fixed: []string{
			"//post/body", "//thread[post/author = \"x\"]//body", "//modnote", "thread/replies/thread/post",
			"//thread[not(replies/thread)]/post/author",
		}},
		{name: "forum-unfold-4", view: forum, rw: unfold(forum, 4), seeds: 40, fixed: []string{
			"//post/body", "//thread[post/author = \"x\"]//body",
		}},
		{name: "property", view: property, rw: flat(property), seeds: 250},
	}
}

// goldenPlans renders every fixture's (query → rewritten, optimized)
// records, one tab-separated line each.
func goldenPlans(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range goldenFixtures(t) {
		opt := optimize.New(f.view.Doc)
		var queries []xpath.Path
		for _, q := range f.fixed {
			queries = append(queries, xpath.MustParse(q))
		}
		labels := append(f.view.DTD.Types(), "nonexistent")
		for seed := int64(1); seed <= int64(f.seeds); seed++ {
			queries = append(queries, randViewPath(rand.New(rand.NewSource(seed)), labels, 3))
		}
		for _, p := range queries {
			pt, err := f.rw.Rewrite(p)
			if err != nil {
				t.Fatalf("%s: Rewrite(%s): %v", f.name, xpath.String(p), err)
			}
			fmt.Fprintf(&buf, "%s\t%s\t%s\t%s\n", f.name, xpath.String(p), xpath.String(pt), xpath.String(opt.Optimize(pt)))
		}
	}
	return buf.Bytes()
}

// TestPlanGolden pins every plan's text: the rewritten and optimized
// plans of the hospital, Adex, Fig. 7 and forum fixtures, plus the
// random queries TestRewriteEquivalenceProperty draws, must print
// byte-for-byte as recorded. Regenerate with `go test -run
// TestPlanGolden -update` in this package only for an intended plan
// change.
func TestPlanGolden(t *testing.T) {
	got := goldenPlans(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(planGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(planGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("plan line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("plan golden has %d lines, got %d", len(wl), len(gl))
}
