package xmltree

import (
	"io"
	"slices"
)

// String renders the subtree rooted at n as indented XML; it is
// AppendXML into a fresh buffer.
func (n *Node) String() string {
	return string(n.AppendXML(nil))
}

// AppendXML appends the subtree rooted at n, serialized as indented XML,
// to b and returns the extended buffer. Every line ends in a newline and
// nesting indents by two spaces: an element without children is written
// as <label/>, an element whose only child is text on one line as
// <label>text</label>, and any other element as its open tag, its
// children one level deeper, and its close tag. Text escapes & < >;
// attribute values additionally escape the double quote and write tab,
// LF and CR as character references, so a parser hands back the exact
// value. Attributes are written sorted by name.
//
// A subtree without attributes is appended without allocating when b
// has room for it, which lets a server write a whole answer into one
// reused buffer.
func (n *Node) AppendXML(b []byte) []byte {
	return appendNode(b, n, 0)
}

// Serialize writes the document as XML to w in one write.
func (d *Document) Serialize(w io.Writer) error {
	_, err := w.Write(d.Root.AppendXML(nil))
	return err
}

// XML returns the document serialized as an indented XML string.
func (d *Document) XML() string {
	return d.Root.String()
}

// appendNode appends n, indented for the given depth.
func appendNode(b []byte, n *Node, depth int) []byte {
	b = appendIndent(b, depth)
	if n.Kind == TextNode {
		b = appendEscaped(b, n.Data, false)
		return append(b, '\n')
	}
	b = append(b, '<')
	b = append(b, n.Label...)
	b = appendAttrs(b, n.Attrs)
	switch {
	case len(n.Children) == 0:
		return append(b, "/>\n"...)
	case len(n.Children) == 1 && n.Children[0].Kind == TextNode:
		b = append(b, '>')
		b = appendEscaped(b, n.Children[0].Data, false)
	default:
		b = append(b, ">\n"...)
		for _, c := range n.Children {
			b = appendNode(b, c, depth+1)
		}
		b = appendIndent(b, depth)
	}
	b = append(b, "</"...)
	b = append(b, n.Label...)
	return append(b, ">\n"...)
}

func appendIndent(b []byte, depth int) []byte {
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendAttrs appends ` name="value"` for each attribute, sorted by
// name.
func appendAttrs(b []byte, attrs map[string]string) []byte {
	if len(attrs) == 0 {
		return b
	}
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, '=', '"')
		b = appendEscaped(b, attrs[k], true)
		b = append(b, '"')
	}
	return b
}

// appendEscaped appends s with the XML special characters replaced by
// entities, copying each unchanged run in one append. In attribute
// values (attr) the double quote is escaped too, and tab, LF and CR
// become character references so attribute-value normalization does
// not turn them into spaces.
func appendEscaped(b []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch c := s[i]; {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case !attr:
			continue
		case c == '"':
			esc = "&quot;"
		case c == '\t':
			esc = "&#9;"
		case c == '\n':
			esc = "&#10;"
		case c == '\r':
			esc = "&#13;"
		default:
			continue
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		last = i + 1
	}
	return append(b, s[last:]...)
}
