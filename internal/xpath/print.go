package xpath

import (
	"fmt"
	"strings"
)

// String renders a path in the concrete syntax accepted by Parse, so that
// Parse(String(p)) is structurally equal to p up to associativity.
func String(p Path) string {
	var b strings.Builder
	writePath(&b, p, precUnion)
	return b.String()
}

// QualString renders a qualifier (without the surrounding brackets).
func QualString(q Qual) string {
	var b strings.Builder
	writeQual(&b, q, qprecOr)
	return b.String()
}

// Operator precedence levels for paths: union < seq < step.
const (
	precUnion = iota
	precSeq
	precStep
)

func writePath(b *strings.Builder, p Path, ctx int) {
	switch p := p.(type) {
	case Empty:
		b.WriteString("∅")
	case Self:
		b.WriteString(".")
	case Label:
		if p.Name == TextName {
			b.WriteString("text()")
		} else {
			b.WriteString(p.Name)
		}
	case Wildcard:
		b.WriteString("*")
	case Seq:
		if ctx > precSeq {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		// A Descend on the left must be parenthesized: "//a/b" re-parses as
		// //(a/b), not (//a)/b.
		if _, ok := p.Left.(Descend); ok {
			b.WriteString("(")
			writePath(b, p.Left, precUnion)
			b.WriteString(")")
		} else {
			writePath(b, p.Left, precSeq)
		}
		// p1/(//p2) is rendered p1//p2.
		if d, ok := p.Right.(Descend); ok {
			b.WriteString("//")
			writePath(b, d.Sub, precStep)
			return
		}
		b.WriteString("/")
		writePath(b, p.Right, precStep)
	case Descend:
		if ctx > precSeq {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		b.WriteString("//")
		writePath(b, p.Sub, precStep)
	case Union:
		if ctx > precUnion {
			b.WriteString("(")
			writePath(b, p, precUnion)
			b.WriteString(")")
			return
		}
		writePath(b, p.Left, precUnion)
		b.WriteString(" | ")
		// The parser is left-associative; parenthesize a right-nested union.
		writePath(b, p.Right, precSeq)
	case Qualified:
		writePath(b, p.Sub, precStep)
		b.WriteString("[")
		writeQual(b, p.Cond, qprecOr)
		b.WriteString("]")
	case Rec:
		// Rec has no concrete syntax (it only appears in rewritten plans,
		// which are never re-parsed); render a compact opaque form.
		fmt.Fprintf(b, "rec{%s=>%s}", p.Start, p.Accept)
	default:
		fmt.Fprintf(b, "<?path %T>", p)
	}
}

// Qualifier precedence: or < and < not/atom.
const (
	qprecOr = iota
	qprecAnd
	qprecNot
)

func writeQual(b *strings.Builder, q Qual, ctx int) {
	switch q := q.(type) {
	case QTrue:
		b.WriteString("true()")
	case QFalse:
		b.WriteString("false()")
	case QPath:
		writeQualPath(b, q.Path, precUnion)
	case QEq:
		writeQualPath(b, q.Path, precSeq)
		b.WriteString(" = ")
		if q.Var != "" {
			b.WriteString("$")
			b.WriteString(q.Var)
		} else {
			writeLiteral(b, q.Value)
		}
	case QAttrEq:
		fmt.Fprintf(b, "@%s = ", q.Name)
		writeLiteral(b, q.Value)
	case QAttrHas:
		fmt.Fprintf(b, "@%s", q.Name)
	case QAnd:
		if ctx > qprecAnd {
			b.WriteString("(")
			writeQual(b, q, qprecOr)
			b.WriteString(")")
			return
		}
		writeQual(b, q.Left, qprecAnd)
		b.WriteString(" and ")
		// The parser is left-associative; parenthesize a right-nested and.
		writeQual(b, q.Right, qprecNot)
	case QOr:
		if ctx > qprecOr {
			b.WriteString("(")
			writeQual(b, q, qprecOr)
			b.WriteString(")")
			return
		}
		writeQual(b, q.Left, qprecOr)
		b.WriteString(" or ")
		// The parser is left-associative; parenthesize a right-nested or.
		writeQual(b, q.Right, qprecAnd)
	case QNot:
		b.WriteString("not(")
		writeQual(b, q.Sub, qprecOr)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?qual %T>", q)
	}
}

// writeQualPath writes the path of a qualifier atom. A path that would
// open with a step named not, true or false is parenthesized: bare, the
// parser reads that word as the qualifier keyword.
func writeQualPath(b *strings.Builder, p Path, ctx int) {
	if !opensWithQualKeyword(p) {
		writePath(b, p, ctx)
		return
	}
	b.WriteString("(")
	writePath(b, p, precUnion)
	b.WriteString(")")
}

// opensWithQualKeyword reports whether p's leftmost step is a label
// that parseQualAtom would read as a keyword.
func opensWithQualKeyword(p Path) bool {
	for {
		switch q := p.(type) {
		case Label:
			return q.Name == "not" || q.Name == "true" || q.Name == "false"
		case Seq:
			p = q.Left
		case Union:
			p = q.Left
		case Qualified:
			p = q.Sub
		default:
			return false
		}
	}
}

// writeLiteral writes a string constant the way parseLiteral reads it:
// verbatim between quotes, since the grammar has no escapes. It uses
// double quotes unless the value contains one. A value holding both
// quote characters (possible only through BindVars) has no literal
// form.
func writeLiteral(b *strings.Builder, v string) {
	quote := byte('"')
	if strings.IndexByte(v, '"') >= 0 {
		quote = '\''
	}
	b.WriteByte(quote)
	b.WriteString(v)
	b.WriteByte(quote)
}
