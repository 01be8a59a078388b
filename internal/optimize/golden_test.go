package optimize

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/contains.golden from the current code")

const containsGolden = "testdata/contains.golden"

// containsFixture is one DTD whose containment verdicts the golden pins.
type containsFixture struct {
	name  string
	d     *dtd.DTD
	fixed []string
	// seeds is the number of random query pairs (seeds 1..seeds).
	seeds int
}

// containsFixtures covers the paper's Fig. 8(a-c) and Fig. 9 DTDs, the
// hospital and Adex schemas of Section 6 and the recursive Fig. 7 and
// forum schemas, whose image graphs are cyclic.
func containsFixtures() []containsFixture {
	return []containsFixture{
		{"fig8a", fig8a(), []string{"a[b]", "a[c]/b", "//a[b and c]", "a/b", "a", "a[b]/c | a/b", "*/*", "//text()"}, 200},
		{"fig8b", fig8b(), []string{"//a[b and c]", "a[b]", "a[c]", "a/(b | c)", "a/*", "a[not(b)]/c"}, 200},
		{"fig8c", fig8c(), []string{"(a | b)/c", "a/c", "b/d", "*/*", "//c | //d", "a[c]"}, 200},
		{"fig9", fig9(), []string{".[b]/*/d/*/g", ".[b]/(b | c)/d/(e | f)/g", ".[b]/b/d/e/g | ./b/d/f/g", "//g", "b//g", "*/d[e and f]/e"}, 250},
		{"hospital", dtds.Hospital(), []string{"dept", "*", "//patient/name", "//patient/*", "//patient[.//trial]", "//patient",
			"//trial//bill", "//bill", "//dept//bill", "//patientInfo//name", "//dept//name", "dept/staffInfo | //patient",
			"//treatment/trial", "//treatment/*", "(//.)/wardNo", "//(patient | staff)[//medication]", "//patient[wardNo = \"1\"]/name",
			"//patient[name and wardNo]", "//staff[doctor and nurse]"}, 350},
		{"adex", dtds.Adex(), []string{"//house", "//real-estate/*", "//buyer-info[contact-info]", "//ad-instance//r-e.warranty", "head/*"}, 350},
		{"fig7", dtds.Fig7(), []string{"//b", "//a/b", "//a//b", "b", "c/a", "//a[b]", "//a", "//c/a/b", ".", "//*", "c/a/c", "//a[not(c)]", "//c[a/b]"}, 250},
		{"forum", dtds.Forum(), []string{"//post", "//thread/post/author", "//replies//body", "thread[replies/thread]", "//thread[post/modnote]//author", "//*"}, 250},
		// The recursive chain of TestImageBudgetOverflow: wide unions of
		// repeated steps overflow the image budget.
		{"chain", dtd.MustParse("root a\na -> b\nb -> b + c\nc -> #PCDATA\n"), []string{"b", "//c", "b/b[c]", "//b[b and c]",
			strings.Repeat("(b | b | b | b)/", 5) + "c", strings.Repeat("(b | b | b | b)/", 13) + "(b | b | b | b)"}, 150},
	}
}

// goldenVerdicts prints one line per query pair: the fixture, both
// queries, the Contains verdicts both ways, the optimized text of
// p1 | p2 (see digest), and each image's node count ("overflow" when the build gave
// up, "empty" when the query provably selects nothing).
func goldenVerdicts() []byte {
	var buf bytes.Buffer
	for _, f := range containsFixtures() {
		o := New(f.d)
		labels := append(f.d.Types(), "nosuch", xpath.TextName)
		var pairs [][2]xpath.Path
		for _, q1 := range f.fixed {
			for _, q2 := range f.fixed {
				pairs = append(pairs, [2]xpath.Path{xpath.MustParse(q1), xpath.MustParse(q2)})
			}
		}
		for seed := int64(1); seed <= int64(f.seeds); seed++ {
			r := rand.New(rand.NewSource(seed))
			depth := 2 + int(seed%2)
			p1, p2 := randAdexPath(r, labels, depth), randAdexPath(r, labels, depth)
			if seed%2 == 0 { // root-relative paths rarely reach past the root
				p1, p2 = xpath.Descend{Sub: p1}, xpath.Descend{Sub: p2}
			}
			pairs = append(pairs, [2]xpath.Path{p1, p2})
		}
		for _, pq := range pairs {
			p1, p2 := pq[0], pq[1]
			fmt.Fprintf(&buf, "%s\t%s\t%s\t%t\t%t\t%s\t%s\t%s\n", f.name, xpath.String(p1), xpath.String(p2),
				o.Contains(p1, p2), o.Contains(p2, p1), digest(xpath.String(o.Optimize(xpath.Union{Left: p1, Right: p2}))),
				imageSize(o.Image(p1)), imageSize(o.Image(p2)))
		}
	}
	return buf.Bytes()
}

// digest keeps long optimized texts from bloating the golden: past 200
// bytes a text is recorded as its length and FNV-1a hash.
func digest(s string) string {
	if len(s) <= 200 {
		return s
	}
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("len=%d fnv=%016x", len(s), h.Sum64())
}

func imageSize(g *Image) string {
	switch {
	case !g.ok:
		return "overflow"
	case g.g.empty():
		return "empty"
	default:
		return strconv.Itoa(g.g.size)
	}
}

// TestContainsGolden pins the §5.1 containment test end to end: every
// verdict, every optimized union and every image size over the fixture
// DTDs must print byte-for-byte as recorded. Regenerate with `go test
// ./internal/optimize -run TestContainsGolden -update` only for an
// intended change of the abstraction.
func TestContainsGolden(t *testing.T) {
	got := goldenVerdicts()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(containsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(containsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(containsGolden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("verdict line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("verdict golden has %d lines, got %d", len(wl), len(gl))
}
