package xpath

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Path
	}{
		{".", Self{}},
		{"*", Wildcard{}},
		{"∅", Empty{}},
		{"dept", Label{Name: "dept"}},
		{"r-e.warranty", Label{Name: "r-e.warranty"}},
		{"text()", Label{Name: TextName}},
		{"a/b", Seq{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"/a/b", Seq{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"//a", Descend{Sub: Label{Name: "a"}}},
		{"a//b", Seq{Left: Label{Name: "a"}, Right: Descend{Sub: Label{Name: "b"}}}},
		{"a | b", Union{Left: Label{Name: "a"}, Right: Label{Name: "b"}}},
		{"(a | b)/c", Seq{Left: Union{Left: Label{Name: "a"}, Right: Label{Name: "b"}}, Right: Label{Name: "c"}}},
		{"a[b]", Qualified{Sub: Label{Name: "a"}, Cond: QPath{Path: Label{Name: "b"}}}},
		{"a[b and c]", Qualified{Sub: Label{Name: "a"}, Cond: QAnd{Left: QPath{Path: Label{Name: "b"}}, Right: QPath{Path: Label{Name: "c"}}}}},
		{"a[b or not(c)]", Qualified{Sub: Label{Name: "a"}, Cond: QOr{Left: QPath{Path: Label{Name: "b"}}, Right: QNot{Sub: QPath{Path: Label{Name: "c"}}}}}},
		{`a[b = "6"]`, Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Value: "6"}}},
		{`a[b = '6']`, Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Value: "6"}}},
		{"a[b = $wardNo]", Qualified{Sub: Label{Name: "a"}, Cond: QEq{Path: Label{Name: "b"}, Var: "wardNo"}}},
		{`a[@accessibility = "1"]`, Qualified{Sub: Label{Name: "a"}, Cond: QAttrEq{Name: "accessibility", Value: "1"}}},
		{"a[true()]", Qualified{Sub: Label{Name: "a"}, Cond: QTrue{}}},
		{"a[false()]", Qualified{Sub: Label{Name: "a"}, Cond: QFalse{}}},
		{"a[.[b]]", Qualified{Sub: Label{Name: "a"}, Cond: QPath{Path: Qualified{Sub: Self{}, Cond: QPath{Path: Label{Name: "b"}}}}}},
	}
	for _, tc := range cases {
		got, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", tc.src, got, tc.want)
		}
	}
}

func TestParsePaperQueries(t *testing.T) {
	// Every query that appears in the paper must parse.
	queries := []string{
		"//dept//patientInfo/patient/name",
		"//dept/patientInfo/patient/name",
		"dept[*/patient/wardNo = $wardNo]",
		"(clinicalTrial | .)/patientInfo",
		"//patient//bill",
		"//b",
		"a[b and c]",
		"(a | b)/c",
		"a[b]/*/d/*/g",
		"a[b]/(b | c)/d/(e | f)/g",
		"a[b]/b/d/e/g | a/b/d/f/g",
		"//patient | //(patient | staff)[//medication]",
		"//buyer-info/contact-info",
		"//house/r-e.warranty | //apartment/r-e.warranty",
		"//buyer-info[//company-id and //contact-info]",
		"//house[//r-e.asking-price and //r-e.unit-type]",
		"/adex/head/buyer-info/contact-info",
		`//buyer-info//contact-info[@accessibility = "1"]`,
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"a/",
		"a[",
		"a[b",
		"a]",
		"a[b = ]",
		"(a",
		"a |",
		"//",
		"a b",
		"not(a)",
		"a[not b]",
		`a[b = "unterminated]`,
	} {
		if p, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %v, want error", src, String(p))
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	queries := []string{
		".",
		"a/b/c",
		"//a//b",
		"(a | b)/c[d and e/f]",
		"a[b = \"x\" and not(c | d)]",
		"a[.[b] or c]",
		"∅ | a",
		"a/(b | c)//d",
		"*[*]",
		"text()",
		"a[@acc = \"1\"]",
		"a[b = $w]",
	}
	for _, src := range queries {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		out := String(p1)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q (printed from %q): %v", out, src, err)
		}
		if !Equal(p1, p2) {
			t.Errorf("round trip changed %q: printed %q, reparsed %q", src, out, String(p2))
		}
	}
}

// randPath generates a random path AST of bounded depth for the
// round-trip property test.
func randPath(r *rand.Rand, depth int) Path {
	names := []string{"a", "b", "c", "dept", "x-y.z"}
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Self{}
		case 1:
			return Wildcard{}
		case 2:
			return Label{Name: names[r.Intn(len(names))]}
		default:
			return Label{Name: TextName}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Seq{Left: randPath(r, depth-1), Right: randPath(r, depth-1)}
	case 1:
		return Descend{Sub: randPath(r, depth-1)}
	case 2:
		return Union{Left: randPath(r, depth-1), Right: randPath(r, depth-1)}
	case 3:
		return Qualified{Sub: randPath(r, depth-1), Cond: randQual(r, depth-1)}
	default:
		return randPath(r, 0)
	}
}

func randQual(r *rand.Rand, depth int) Qual {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return QPath{Path: randPath(r, 0)}
		case 1:
			return QEq{Path: randPath(r, 0), Value: "v"}
		default:
			return QAttrEq{Name: "acc", Value: "1"}
		}
	}
	switch r.Intn(4) {
	case 0:
		return QAnd{Left: randQual(r, depth-1), Right: randQual(r, depth-1)}
	case 1:
		return QOr{Left: randQual(r, depth-1), Right: randQual(r, depth-1)}
	case 2:
		return QNot{Sub: randQual(r, depth-1)}
	default:
		return QPath{Path: randPath(r, depth-1)}
	}
}

// TestPrintParsePropery: for random ASTs, Parse(String(p)) == p.
func TestPrintParseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPath(r, 4)
		src := String(p)
		p2, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: Parse(%q): %v", seed, src, err)
			return false
		}
		if !Equal(p, p2) {
			t.Logf("seed %d: %q reparsed as %q", seed, src, String(p2))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseQual(t *testing.T) {
	q, err := ParseQual("a and b = \"1\"")
	if err != nil {
		t.Fatalf("ParseQual: %v", err)
	}
	want := QAnd{Left: QPath{Path: Label{Name: "a"}}, Right: QEq{Path: Label{Name: "b"}, Value: "1"}}
	if !QualEqual(q, want) {
		t.Errorf("ParseQual = %s", QualString(q))
	}
	if _, err := ParseQual("a and"); err == nil {
		t.Errorf("ParseQual accepted dangling and")
	}
}

func TestKeywordNamesAreLabels(t *testing.T) {
	// Names that start with keywords must still parse as labels.
	p := MustParse("android/order")
	want := Seq{Left: Label{Name: "android"}, Right: Label{Name: "order"}}
	if !Equal(p, want) {
		t.Errorf("got %s", String(p))
	}
	q := MustParseQual("android and order")
	wantQ := QAnd{Left: QPath{Path: Label{Name: "android"}}, Right: QPath{Path: Label{Name: "order"}}}
	if !QualEqual(q, wantQ) {
		t.Errorf("got %s", QualString(q))
	}
}

// TestParseDepthLimit: no query text can nest deeper than MaxDepth.
// Deeper queries — in parentheses, qualifiers, not(), or as left-deep
// operator chains — fail with a ParseError instead of exhausting the
// stack, and a query one level inside the bound still parses.
func TestParseDepthLimit(t *testing.T) {
	nest := func(open, inner, close string, n int) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	chain := func(op string, n int) string {
		return strings.Repeat("a"+op, n) + "a"
	}
	tooDeep := map[string]string{
		"4.9M-deep parens":       nest("(", "patient", ")", 4_900_000),
		"200k-step path":         chain("/", 200_000),
		"200k-step descendants":  chain("//", 200_000),
		"200k-way union":         chain("|", 200_000),
		"200k stacked filters":   "a" + strings.Repeat("[b]", 200_000),
		"200k nested qualifiers": nest("a[", "b", "]", 200_000),
		"200k nested not()":      "a[" + nest("not(", "b", ")", 200_000) + "]",
		"200k-way and":           "a[" + chain(" and ", 200_000) + "]",
		"200k-way or":            "a[" + chain(" or ", 200_000) + "]",
		"parens past the bound":  nest("(", "a", ")", MaxDepth+1),
		"chain past the bound":   chain("/", MaxDepth+1),
		"parens in a qualifier":  "a[" + nest("(", "b", ")", 200_000) + " = 1]",
		// Each level's qualifier reading of '(' fails on the depth error
		// inside; retrying it as a path must not double the work.
		"[( past the bound": "a" + nest("[(b", "", ")]", MaxDepth/2+1),
	}
	for name, src := range tooDeep {
		start := time.Now()
		_, err := Parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a ParseError", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: rejected after %v, want well under 2s", name, d)
		}
	}
	if _, err := ParseQual(nest("not(", "b", ")", 200_000)); err == nil {
		t.Errorf("ParseQual accepted 200k nested not()")
	}
	for name, src := range map[string]string{
		"parens":     nest("(", "a", ")", MaxDepth-1),
		"path":       chain("/", MaxDepth-1),
		"union":      chain("|", MaxDepth-1),
		"qualifiers": nest("a[", "b", "]", MaxDepth-1),
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s at depth MaxDepth-1: %v", name, err)
		}
	}
}

// TestParseParenRetryIsLinear: a '(' inside a qualifier is read first
// as a parenthesized qualifier and, when that fails, again as a path.
// Unmemoized, nested retries compound — 2^n steps for n levels of
// a[(b[(b[(c)/d])/d])/d] — so a few hundred bytes of query would pin a
// CPU. Each of these shapes, valid or not, must parse in one fast pass
// to the plan the grammar gives it.
func TestParseParenRetryIsLinear(t *testing.T) {
	// shape builds a[S(n)] with S(1) = (c)<op>d and
	// S(k) = (b[S(k-1)])<op>d, and the printed form wanted for op "/".
	shape := func(op string, n int) (src, want string) {
		src, want = "(c)"+op+"d", "c/d"
		for k := 1; k < n; k++ {
			src, want = "(b["+src+"])"+op+"d", "b["+want+"]/d"
		}
		return "a[" + src + "]", "a[" + want + "]"
	}
	long := strings.Repeat("x", 1000)
	const levels = 450 // two levels of nesting each: inside MaxDepth
	for _, tc := range []struct {
		name, src, want string // want "" means a ParseError
	}{
		{name: "small valid shape", src: "a[(b[(c)/d])/d]", want: "a[b[c/d]/d]"},
		{name: "valid, path continuation after every ')'", src: func() string { s, _ := shape("/", levels); return s }(),
			want: func() string { _, w := shape("/", levels); return w }()},
		{name: "invalid, '|' after every ')'", src: func() string { s, _ := shape("|", levels); return s }()},
		{name: "[( just inside the bound", src: "a" + strings.Repeat("[(b", levels) + strings.Repeat(")]", levels),
			want: "a" + strings.Repeat("[b", levels) + strings.Repeat("]", levels)},
		{name: "deep path parens with long labels",
			src:  "a[" + strings.Repeat("(", 900) + "b" + strings.Repeat(")/"+long, 900) + "]",
			want: "a[b" + strings.Repeat("/"+long, 900) + "]"},
	} {
		start := time.Now()
		p, err := Parse(tc.src)
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: parsed in %v, want well under 2s", tc.name, d)
		}
		switch {
		case tc.want == "":
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("%s: err = %v, want a ParseError", tc.name, err)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case String(p) != tc.want:
			t.Errorf("%s: parsed as %.80s…, want %.80s…", tc.name, String(p), tc.want)
		}
	}
}
