package xmltree_test

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// TestAppendXMLGolden pins the serializer's bytes with literal strings,
// independently of any other serializer in the repository.
func TestAppendXMLGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		n    *xmltree.Node
		want string
	}{
		{"empty element", xmltree.E("a"), "<a/>\n"},
		{"inline text", xmltree.T("name", "Alice"), "<name>Alice</name>\n"},
		{"text escaping", xmltree.T("a", "x < y & z > w"), "<a>x &lt; y &amp; z &gt; w</a>\n"},
		{"quotes stay literal in text", xmltree.T("a", `say "hi" it's`), "<a>say \"hi\" it's</a>\n"},
		{"bare text node", xmltree.Txt("a&b"), "a&amp;b\n"},
		{"inline text keeps its whitespace", xmltree.T("a", " x\ty\n"), "<a> x\ty\n</a>\n"},
		{"nested indentation",
			xmltree.E("a", xmltree.E("b", xmltree.T("c", "1"), xmltree.E("d")), xmltree.E("e")),
			"<a>\n  <b>\n    <c>1</c>\n    <d/>\n  </b>\n  <e/>\n</a>\n"},
		{"mixed content",
			xmltree.E("p", xmltree.Txt("hi"), xmltree.T("b", "x<y"), xmltree.Txt("there & back")),
			"<p>\n  hi\n  <b>x&lt;y</b>\n  there &amp; back\n</p>\n"},
		{"single element child is not inline",
			xmltree.E("a", xmltree.E("b")),
			"<a>\n  <b/>\n</a>\n"},
		{"attributes sorted and escaped",
			xmltree.A(xmltree.E("a"), "k", `a"b`, "j", "x&<>\t\n\r", "i", `a\b é`),
			"<a i=\"a\\b é\" j=\"x&amp;&lt;&gt;&#9;&#10;&#13;\" k=\"a&quot;b\"/>\n"},
		{"attributes with inline text",
			xmltree.A(xmltree.T("item", "v"), "id", "1"),
			"<item id=\"1\">v</item>\n"},
	} {
		if got := string(c.n.AppendXML(nil)); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
		if got := c.n.String(); got != c.want {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestAttributeValuesRoundTrip covers the values the old %q quoting
// broke: some made the output unparseable, others came back altered.
func TestAttributeValuesRoundTrip(t *testing.T) {
	for _, v := range []string{`a"b`, "a&b", "a<b", "a>b", `a\b`, "a\tb", "a\nb", "a\rb", "a\r\nb", "", " lead trail ", "'single'", "日本語 é"} {
		out := xmltree.A(xmltree.E("r"), "k", v).String()
		doc, err := xmltree.ParseString(out)
		if err != nil {
			t.Errorf("value %q: serialized %q does not parse: %v", v, out, err)
			continue
		}
		if got, _ := doc.Root.Attr("k"); got != v {
			t.Errorf("value %q: serialized %q, parsed back %q", v, out, got)
		}
	}
}

// nasty is the alphabet of the random text and attribute values: every
// character the serializer escapes, the backslash the old %q quoting
// doubled, whitespace, and multi-byte UTF-8.
var nasty = []string{`"`, "&", "<", ">", `\`, "\t", "\n", " ", "'", "]", "a", "b", "z", "0", "é", "日", "\u00a0", "😀"}

// randValue returns a random string over nasty. Text must not be blank,
// since the parser drops whitespace-only text between elements.
func randValue(r *rand.Rand, text bool) string {
	var b strings.Builder
	for i := r.Intn(8); i >= 0; i-- {
		b.WriteString(nasty[r.Intn(len(nasty))])
	}
	s := b.String()
	if text && strings.TrimSpace(s) == "" {
		s += "x"
	}
	return s
}

var labels = []string{"a", "b", "item", "x-y", "n.1", "_u"}

// randTree builds a random element tree. With attrs, elements carry
// random attributes. With mixed, an element may hold several text
// children among its elements; otherwise text only appears as an
// element's single child, the one form whose text a parser hands back
// unchanged (mixed content gains the indentation).
func randTree(r *rand.Rand, depth int, attrs, mixed bool) *xmltree.Node {
	n := xmltree.NewElement(labels[r.Intn(len(labels))])
	if attrs {
		for i := r.Intn(4); i > 0; i-- {
			n.SetAttr(labels[r.Intn(len(labels))], randValue(r, false))
		}
	}
	switch k := r.Intn(4); {
	case k == 0 || depth == 0:
		if r.Intn(2) == 0 {
			n.AppendChild(xmltree.NewText(randValue(r, true)))
		}
	default:
		for i := r.Intn(4); i >= 0; i-- {
			if mixed && r.Intn(3) == 0 {
				n.AppendChild(xmltree.NewText(randValue(r, true)))
			} else {
				n.AppendChild(randTree(r, depth-1, attrs, mixed))
			}
		}
	}
	return n
}

// sameTree reports where two trees first differ in label, attributes,
// text or shape, or "" when they agree.
func sameTree(a, b *xmltree.Node) string {
	if a.Kind != b.Kind || a.Label != b.Label || a.Data != b.Data {
		return "node " + a.Path() + ": " + a.Label + " " + strconv.Quote(a.Data) + " vs " + b.Label + " " + strconv.Quote(b.Data)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return "node " + a.Path() + ": attribute count differs"
	}
	for k, v := range a.Attrs {
		if w, ok := b.Attrs[k]; !ok || w != v {
			return "node " + a.Path() + ": attribute " + k + " " + strconv.Quote(v) + " vs " + strconv.Quote(w)
		}
	}
	if len(a.Children) != len(b.Children) {
		return "node " + a.Path() + ": child count differs"
	}
	for i := range a.Children {
		if d := sameTree(a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

func roundTrip(t *testing.T, what string, root *xmltree.Node) {
	t.Helper()
	out := root.String()
	back, err := xmltree.ParseString(out)
	if err != nil {
		t.Fatalf("%s: serialized form does not parse: %v\n%s", what, err, out)
	}
	if d := sameTree(root, back.Root); d != "" {
		t.Fatalf("%s: round trip changed the tree: %s\n%s", what, d, out)
	}
}

// TestSerializeRoundTripProperty: serialize → Parse gives back the same
// labels, attributes and text, on random trees over nasty values and on
// generated documents with attributes.
func TestSerializeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		roundTrip(t, "random tree", randTree(r, 4, true, false))
	}
	d := dtd.MustParse(`
root r
r -> item*, group*
group -> item*, tail
tail -> note + empty
item -> #PCDATA
note -> #PCDATA
empty -> EMPTY
attlist r version
attlist group name!, kind
attlist item id!, note, lang
attlist empty flag
`)
	for seed := int64(0); seed < 20; seed++ {
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      seed,
			MinRepeat: 1,
			MaxRepeat: 5,
			Value:     func(r *rand.Rand, label string) string { return randValue(r, true) },
		})
		roundTrip(t, "xmlgen document", doc.Root)
	}
}

// TestAppendXMLMatchesLegacy is the old-vs-new differential: on trees
// without attributes the append serializer writes exactly the bytes of
// the frozen fmt serializer.
func TestAppendXMLMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		n := randTree(r, 4, false, true)
		if got, want := n.String(), legacyString(n); got != want {
			t.Fatalf("random tree:\n got %q\nwant %q", got, want)
		}
	}
	for _, c := range []struct {
		seed   int64
		repeat int
	}{{1, 8}, {7, 4}, {1, 48}} {
		doc := dtds.GenerateHospital(c.seed, c.repeat)
		if got, want := doc.XML(), legacyString(doc.Root); got != want {
			t.Fatalf("hospital seed %d repeat %d: whole document differs", c.seed, c.repeat)
		}
		if doc.Size() > 1000 {
			continue
		}
		for _, n := range doc.Nodes() {
			if got, want := n.String(), legacyString(n); got != want {
				t.Fatalf("hospital seed %d repeat %d, node %s:\n got %q\nwant %q", c.seed, c.repeat, n.Path(), got, want)
			}
		}
	}
}

type failWriter struct{}

var errWrite = errors.New("write failed")

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

// TestSerialize: Document.Serialize writes the bytes of XML and reports
// the writer's error.
func TestSerialize(t *testing.T) {
	doc := dtds.GenerateHospital(1, 8)
	var b strings.Builder
	if err := doc.Serialize(&b); err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	if b.String() != doc.XML() {
		t.Errorf("Serialize wrote different bytes from XML()")
	}
	if err := doc.Serialize(failWriter{}); !errors.Is(err, errWrite) {
		t.Errorf("Serialize error = %v, want %v", err, errWrite)
	}
}

// TestAppendXMLAllocs: appending an attribute-free subtree into a buffer
// with room for it does not allocate.
func TestAppendXMLAllocs(t *testing.T) {
	doc := dtds.GenerateHospital(1, 8)
	buf := make([]byte, 0, 2*len(doc.XML()))
	for _, n := range []*xmltree.Node{doc.Root, doc.Root.Children[0], doc.Nodes()[doc.Size()-1]} {
		if a := testing.AllocsPerRun(20, func() { _ = n.AppendXML(buf[:0]) }); a != 0 {
			t.Errorf("AppendXML of %s into a presized buffer: %v allocs, want 0", n.Path(), a)
		}
	}
}
