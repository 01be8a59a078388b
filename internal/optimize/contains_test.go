package optimize

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestContains(t *testing.T) {
	o := New(dtds.Hospital())
	// Paths are evaluated at the document root element (a hospital node),
	// so steps are root-relative: "dept", not "hospital/dept".
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{"dept", "dept", true},
		{"dept", "*", true},
		{"//patient/name", "//patient/*", true},
		{"//patient/*", "//patient/name", false},
		{"//patient[.//trial]", "//patient", true}, // qualifier strengthens
		{"//patient", "//patient[.//trial]", false},
		{"//bill", "//bill", true},
		{"//trial//bill", "//bill", true},
		{"//bill", "//dept//bill", true}, // every bill sits under a dept in this DTD
		{"//patientInfo//name", "//dept//name", true},
		{"//dept//name", "//patientInfo//name", false}, // staff names escape patientInfo
		{"dept/staffInfo", "dept/staffInfo | //patient", true},
		{"dept/staffInfo | //patient", "dept/staffInfo", false},
		{"//treatment/trial", "//treatment/*", true},
		{"nosuchlabel", "dept", true}, // ∅ contained in everything
		{"dept", "nosuchlabel", false},
	}
	for _, tc := range cases {
		got := o.Contains(xpath.MustParse(tc.p1), xpath.MustParse(tc.p2))
		if got != tc.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	o := New(dtds.Hospital())
	cases := []struct {
		p1, p2 string
		want   bool
	}{
		{"//patient/name", "//patient/name", true},
		{"dept | //bill", "//bill | dept", true}, // commuted union
		{"dept", "*", true},                      // hospital's only child type is dept
		{"//patient", "//patient[name]", true},   // name is a required child
		{"//patient", "//patient[.//trial]", false},
		{"//patient/name", "//patient/*", false},
	}
	for _, tc := range cases {
		got := o.Equivalent(xpath.MustParse(tc.p1), xpath.MustParse(tc.p2))
		if got != tc.want {
			t.Errorf("Equivalent(%q, %q) = %v, want %v", tc.p1, tc.p2, got, tc.want)
		}
	}
}

// TestContainsNeverModelsRec: plans carrying Rec automata must never be
// proved contained (the image abstraction cannot see inside them), with
// the one exception of a provably-empty left-hand side.
func TestContainsNeverModelsRec(t *testing.T) {
	o := New(dtd.MustParse("root a\na -> b\nb -> b + c\nc -> #PCDATA\n"))
	rec := xpath.Rec{ResultLabel: "b"}
	if o.Contains(rec, rec) {
		t.Errorf("Rec proved contained in itself")
	}
	if o.Contains(rec, xpath.MustParse("//b")) || o.Contains(xpath.MustParse("//b"), rec) {
		t.Errorf("Rec compared against a plain query was proved contained")
	}
	if !o.Contains(xpath.MustParse("nosuchlabel"), rec) {
		t.Errorf("provably-empty query not contained in a Rec plan")
	}
	if o.Equivalent(rec, xpath.MustParse("//b")) {
		t.Errorf("Rec proved equivalent to a plain query")
	}
}

// TestContainsSoundOnDocuments is the semantic gate: whenever Contains
// proves p1 ⊆ p2 for random query pairs, the result sets on generated
// documents must actually be subsets. (False negatives are fine; a false
// positive here would let the answer cache serve wrong nodes.)
func TestContainsSoundOnDocuments(t *testing.T) {
	d := dtds.Adex()
	o := New(d)
	labels := append(d.Types(), "nosuch")
	adexDocs := []*xmltree.Document{
		dtds.GenerateAdex(3, 3),
		dtds.GenerateAdex(5, 2),
		dtds.GenerateAdex(9, 4),
	}
	proved := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		p1 := randAdexPath(r, labels, 3)
		p2 := randAdexPath(r, labels, 3)
		if !o.Contains(p1, p2) {
			continue
		}
		proved++
		for di, doc := range adexDocs {
			in := make(map[*xmltree.Node]bool)
			for _, n := range xpath.EvalDoc(p2, doc) {
				in[n] = true
			}
			for _, n := range xpath.EvalDoc(p1, doc) {
				if !in[n] {
					t.Fatalf("seed %d: Contains(%s, %s) proved, but a selected node is missing from the container on doc %d",
						seed, xpath.String(p1), xpath.String(p2), di)
				}
			}
		}
	}
	if proved < 20 {
		t.Fatalf("only %d/400 random pairs were proved contained; generator too adversarial for the test to mean anything", proved)
	}

	// Also gate the recursive Fig. 7 DTD, where the cycle a -> c -> a*
	// makes image graphs loop back on themselves.
	fo := New(dtds.Fig7())
	fqueries := []string{"//b", "//a/b", "//a//b", "b", "c/a", "//a[b]", "//a", "//c/a/b", ".", "//*", "c/a/c"}
	fdoc := xmlgen.Generate(dtds.Fig7(), xmlgen.Config{Seed: 2, MaxRepeat: 2, MaxDepth: 8})
	for _, q1 := range fqueries {
		for _, q2 := range fqueries {
			p1, p2 := xpath.MustParse(q1), xpath.MustParse(q2)
			if !fo.Contains(p1, p2) {
				continue
			}
			in := make(map[*xmltree.Node]bool)
			for _, n := range xpath.EvalDoc(p2, fdoc) {
				in[n] = true
			}
			for _, n := range xpath.EvalDoc(p1, fdoc) {
				if !in[n] {
					t.Errorf("fig7: Contains(%q, %q) proved but violated on a document", q1, q2)
				}
			}
		}
	}
}

// TestImageContainsConcurrent: images are immutable once built, so
// ContainsImage may compare shared images from many goroutines while
// others optimize unions — whose containment tests build in the
// optimizer's scratch store and truncate it — and retain new images
// under the lock. Run under -race; every goroutine must also reach the
// verdicts Contains reaches serially, over the shared images and over
// the ones it retained itself.
func TestImageContainsConcurrent(t *testing.T) {
	o := New(dtds.Hospital())
	queries := []string{"dept", "*", "//patient/name", "//patient/*", "//patient[.//trial]",
		"//patient", "//trial//bill", "//bill", "//dept//name", "//patientInfo//name"}
	imgs := make([]*Image, len(queries))
	want := make([][]bool, len(queries))
	for i, q := range queries {
		imgs[i] = o.Image(xpath.MustParse(q))
	}
	for i := range queries {
		want[i] = make([]bool, len(queries))
		for j := range queries {
			want[i][j] = o.Contains(xpath.MustParse(queries[i]), xpath.MustParse(queries[j]))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				k := (i + g) % len(queries)
				o.Optimize(xpath.MustParse(queries[k] + "[name]"))
				o.Optimize(xpath.MustParse(queries[k] + " | " + queries[i] + "[name] | " + queries[(k+1)%len(queries)]))
				own := o.Image(xpath.MustParse(queries[i]))
				for j := range queries {
					if got := o.ContainsImage(imgs[i], imgs[j]); got != want[i][j] {
						t.Errorf("ContainsImage(%s, %s) = %v, Contains says %v", queries[i], queries[j], got, want[i][j])
					}
					if got := o.ContainsImage(own, imgs[j]); got != want[i][j] {
						t.Errorf("ContainsImage(own %s, %s) = %v, Contains says %v", queries[i], queries[j], got, want[i][j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
