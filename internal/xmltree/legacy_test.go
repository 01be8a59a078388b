package xmltree_test

import (
	"fmt"
	"strings"

	"repro/internal/xmltree"
)

// legacyString is a frozen copy of the fmt/strings.Replacer serializer
// that Node.String used before the append serializer replaced it. It is
// the reference for the differential test: on attribute-free trees the
// two must agree byte for byte. Its attribute form, Go %q quoting, was
// not XML, so the copy leaves attributes out.
func legacyString(n *xmltree.Node) string {
	var b strings.Builder
	legacyWriteNode(&b, n, 0)
	return b.String()
}

func legacyWriteNode(b *strings.Builder, n *xmltree.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.Kind == xmltree.TextNode {
		fmt.Fprintf(b, "%s%s\n", indent, legacyEscapeText(n.Data))
		return
	}
	b.WriteString(indent)
	b.WriteByte('<')
	b.WriteString(n.Label)
	if len(n.Children) == 0 {
		b.WriteString("/>\n")
		return
	}
	if len(n.Children) == 1 && n.Children[0].Kind == xmltree.TextNode {
		fmt.Fprintf(b, ">%s</%s>\n", legacyEscapeText(n.Children[0].Data), n.Label)
		return
	}
	b.WriteString(">\n")
	for _, c := range n.Children {
		legacyWriteNode(b, c, depth+1)
	}
	fmt.Fprintf(b, "%s</%s>\n", indent, n.Label)
}

func legacyEscapeText(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}
