package xpath

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads a query of the fragment C from its concrete syntax.
//
// Syntax summary:
//
//	.                    the empty path ε (context node)
//	name                 child-axis label step (names may contain -._)
//	*                    child-axis wildcard
//	text()               child-axis text-node step
//	p/p, //p, p//p       composition and descendant-or-self
//	p | p                union
//	p[q]                 qualifier
//	∅                    the empty query
//
// and inside qualifiers:
//
//	p, p = "c", p = $var, q and q, q or q, not(q),
//	true(), false(), @name = "v"
//
// A single leading '/' is accepted and ignored: queries are evaluated at a
// context node (the root for whole-document queries), so /a/b ≡ a/b.
func Parse(src string) (Path, error) {
	p := &parser{src: src}
	path, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &ParseError{msg: fmt.Sprintf("xpath: trailing input %q at offset %d", p.src[p.pos:], p.pos)}
	}
	return path, nil
}

// MustParse parses a trusted query and panics on error.
func MustParse(src string) Path {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseQual parses a bare qualifier (the part between brackets).
func ParseQual(src string) (Qual, error) {
	p := &parser{src: src}
	q, err := p.parseQualOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, &ParseError{msg: fmt.Sprintf("xpath: trailing input %q at offset %d", p.src[p.pos:], p.pos)}
	}
	return q, nil
}

// MustParseQual parses a trusted qualifier and panics on error.
func MustParseQual(src string) Qual {
	q, err := ParseQual(src)
	if err != nil {
		panic(err)
	}
	return q
}

// MaxDepth bounds how deeply a query may nest: parentheses, qualifiers
// and not() each add a level, and so does every operand of a chain of
// '/', '//', '|', 'and' or 'or' (the parser builds those chains
// left-deep, so a chain of n operands is an AST n levels tall), and
// every '[…]' stacked on one step. Parse and ParseQual reject deeper
// queries with a ParseError, so no query text can exhaust the stack of
// the parser or of the passes that later recurse over its AST.
const MaxDepth = 1000

type parser struct {
	src   string
	pos   int
	depth int // current nesting, see MaxDepth
	// tooDeep is set once the query nests past MaxDepth. It is fatal:
	// every later deeper() returns it, and parseQualAtom never
	// backtracks over it.
	tooDeep error
	// memo holds the outcome of every parenthesized subexpression parsed
	// since parseQualAtom first backtracked (see parseParenQual); nil
	// until then, so queries that never backtrack pay nothing for it.
	memo map[memoKey]memoResult
}

// memoKey names one parse of a parenthesized subexpression: the offset
// of its '(', the nesting depth there (which decides whether MaxDepth
// is hit inside), and whether parseQualAtom (qual) or parsePrimary
// parsed it.
type memoKey struct {
	pos, depth int
	qual       bool
}

// memoResult is what that parse returned and where it stopped.
type memoResult struct {
	path Path
	qual Qual
	end  int
	err  error
}

// deeper adds one level of nesting and fails beyond MaxDepth. Every
// function that calls it puts back the depth it started with before a
// successful return, so sibling subexpressions do not accumulate; an
// error ends the parse, except where parseQualAtom backtracks over a
// syntax error, and it restores the depth along with the position.
func (p *parser) deeper() error {
	p.depth++
	if p.depth > MaxDepth && p.tooDeep == nil {
		// Unlike errf, the message does not quote the source: a query
		// this deep is typically megabytes long.
		p.tooDeep = &ParseError{msg: fmt.Sprintf("xpath: query nests deeper than %d levels (offset %d)", MaxDepth, p.pos)}
	}
	return p.tooDeep
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		r, w := utf8.DecodeRuneInString(p.src[p.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		p.pos += w
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// ParseError is the error type of Parse and ParseQual. Servers use it
// to tell query-syntax errors (the client's fault) from internal
// failures; the message is unchanged from the historical fmt.Errorf
// form.
type ParseError struct{ msg string }

func (e *ParseError) Error() string { return e.msg }

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{msg: fmt.Sprintf("xpath: %s (offset %d in %q)", fmt.Sprintf(format, args...), p.pos, p.src)}
}

// parseUnion := parseSeq ('|' parseSeq)*
func (p *parser) parseUnion() (Path, error) {
	depth := p.depth
	left, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() != '|' {
			p.depth = depth
			return left, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		left = Union{Left: left, Right: right}
	}
}

// parseSeq := ['/'|'//'] step (('/'|'//') step)*
func (p *parser) parseSeq() (Path, error) {
	p.skipSpace()
	// Leading // : descendant from the context; leading / is ignored (see
	// Parse doc comment).
	if strings.HasPrefix(p.src[p.pos:], "//") {
		p.pos += 2
		rest, err := p.parseSeqAfterSlash()
		if err != nil {
			return nil, err
		}
		return Descend{Sub: rest}, nil
	}
	if p.peek() == '/' {
		p.pos++
	}
	return p.parseSeqAfterSlash()
}

// parseSeqAfterSlash parses step (('/'|'//') step)* with the first step
// mandatory.
func (p *parser) parseSeqAfterSlash() (Path, error) {
	depth := p.depth
	left, err := p.parseStep()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if strings.HasPrefix(p.src[p.pos:], "//") {
			p.pos += 2
			if err := p.deeper(); err != nil {
				return nil, err
			}
			right, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			// Build the remainder of the sequence onto the descend target so
			// a//b/c parses as a/(//(b/c))? No: keep left-assoc a//b then /c.
			left = Seq{Left: left, Right: Descend{Sub: right}}
			continue
		}
		if p.peek() == '/' {
			p.pos++
			if err := p.deeper(); err != nil {
				return nil, err
			}
			right, err := p.parseStep()
			if err != nil {
				return nil, err
			}
			left = Seq{Left: left, Right: right}
			continue
		}
		p.depth = depth
		return left, nil
	}
}

// parseStep := primary ('[' qual ']')*
func (p *parser) parseStep() (Path, error) {
	depth := p.depth
	prim, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() != '[' {
			p.depth = depth
			return prim, nil
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		q, err := p.parseQualOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ']' {
			return nil, p.errf("expected ']'")
		}
		p.pos++
		prim = Qualified{Sub: prim, Cond: q}
	}
}

func (p *parser) parsePrimary() (Path, error) {
	p.skipSpace()
	switch {
	case p.peek() == '(':
		key := memoKey{pos: p.pos, depth: p.depth}
		if r, ok := p.memo[key]; ok {
			p.pos = r.end
			return r.path, r.err
		}
		path, err := p.parseParenPath()
		if p.memo != nil {
			p.memo[key] = memoResult{path: path, end: p.pos, err: err}
		}
		return path, err
	case p.peek() == '*':
		p.pos++
		return Wildcard{}, nil
	case p.peek() == '.':
		p.pos++
		return Self{}, nil
	case strings.HasPrefix(p.src[p.pos:], "∅"):
		p.pos += len("∅")
		return Empty{}, nil
	default:
		name := p.parseName()
		if name == "" {
			return nil, p.errf("expected a step")
		}
		if name == "text" && p.peek() == '(' && strings.HasPrefix(p.src[p.pos:], "()") {
			p.pos += 2
			return Label{Name: TextName}, nil
		}
		return Label{Name: name}, nil
	}
}

// parseParenPath parses '(' union ')'.
func (p *parser) parseParenPath() (Path, error) {
	p.pos++
	if err := p.deeper(); err != nil {
		return nil, err
	}
	inner, err := p.parseUnion()
	p.depth--
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() != ')' {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return inner, nil
}

// parseQualOr := parseQualAnd ('or' parseQualAnd)*
func (p *parser) parseQualOr() (Qual, error) {
	depth := p.depth
	left, err := p.parseQualAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("or") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseQualAnd()
		if err != nil {
			return nil, err
		}
		left = QOr{Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

// parseQualAnd := parseQualAtom ('and' parseQualAtom)*
func (p *parser) parseQualAnd() (Qual, error) {
	depth := p.depth
	left, err := p.parseQualAtom()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("and") {
		if err := p.deeper(); err != nil {
			return nil, err
		}
		right, err := p.parseQualAtom()
		if err != nil {
			return nil, err
		}
		left = QAnd{Left: left, Right: right}
	}
	p.depth = depth
	return left, nil
}

func (p *parser) parseQualAtom() (Qual, error) {
	p.skipSpace()
	if p.peek() == '(' {
		key := memoKey{pos: p.pos, depth: p.depth, qual: true}
		if r, ok := p.memo[key]; ok {
			p.pos = r.end
			return r.qual, r.err
		}
		q, err := p.parseParenQual()
		if p.memo != nil {
			p.memo[key] = memoResult{qual: q, end: p.pos, err: err}
		}
		return q, err
	}
	if p.eatKeyword("not") {
		p.skipSpace()
		if p.peek() != '(' {
			return nil, p.errf("expected '(' after not")
		}
		p.pos++
		if err := p.deeper(); err != nil {
			return nil, err
		}
		inner, err := p.parseQualOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peek() != ')' {
			return nil, p.errf("expected ')' after not(...)")
		}
		p.pos++
		p.depth--
		return QNot{Sub: inner}, nil
	}
	if p.eatKeyword("true") {
		if err := p.expectParens(); err != nil {
			return nil, err
		}
		return QTrue{}, nil
	}
	if p.eatKeyword("false") {
		if err := p.expectParens(); err != nil {
			return nil, err
		}
		return QFalse{}, nil
	}
	if p.peek() == '@' {
		p.pos++
		name := p.parseName()
		if name == "" {
			return nil, p.errf("expected attribute name after '@'")
		}
		p.skipSpace()
		if p.peek() != '=' {
			return QAttrHas{Name: name}, nil
		}
		p.pos++
		val, _, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return QAttrEq{Name: name, Value: val}, nil
	}
	return p.parsePathQual()
}

// parseParenQual parses a qualifier atom that opens with '(': a
// parenthesized qualifier or a path whose first step is parenthesized.
// It tries the qualifier first and, on failure, parses the same text
// again as a path. Nested, that retry would multiply: in
// a[(b[(b[(c)/d])/d])/d] each level reads its inner level twice, so
// the work doubles per level. From the first retry on, the parser
// therefore memoizes every parenthesized subexpression by offset and
// depth (see memoKey), and each is parsed at most once as a qualifier
// atom and once as a path primary.
func (p *parser) parseParenQual() (Qual, error) {
	save, depth := p.pos, p.depth
	p.pos++
	if err := p.deeper(); err != nil {
		return nil, err
	}
	inner, err := p.parseQualOr()
	if err == nil {
		p.skipSpace()
		if p.peek() == ')' {
			p.pos++
			// If an '=' or path continuation follows, the parentheses
			// belonged to a path; re-parse as a path qualifier.
			p.skipSpace()
			if p.peek() != '=' && p.peek() != '/' && p.peek() != '[' {
				p.depth = depth
				return inner, nil
			}
		}
	}
	if p.tooDeep != nil {
		return nil, p.tooDeep
	}
	p.pos, p.depth = save, depth
	if p.memo == nil {
		p.memo = make(map[memoKey]memoResult)
	}
	return p.parsePathQual()
}

// parsePathQual := union ['=' literal]
func (p *parser) parsePathQual() (Qual, error) {
	path, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() == '=' {
		p.pos++
		val, varName, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return QEq{Path: path, Value: val, Var: varName}, nil
	}
	return QPath{Path: path}, nil
}

func (p *parser) expectParens() error {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], "()") {
		return p.errf("expected '()'")
	}
	p.pos += 2
	return nil
}

// parseLiteral parses "str", 'str', $var, or a bare number/word constant.
// It returns (value, varName).
func (p *parser) parseLiteral() (string, string, error) {
	p.skipSpace()
	switch {
	case p.peek() == '"' || p.peek() == '\'':
		quote := p.peek()
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != quote {
			p.pos++
		}
		if p.pos == len(p.src) {
			return "", "", p.errf("unterminated string literal")
		}
		val := p.src[start:p.pos]
		p.pos++
		return val, "", nil
	case p.peek() == '$':
		p.pos++
		name := p.parseName()
		if name == "" {
			return "", "", p.errf("expected variable name after '$'")
		}
		return "", name, nil
	default:
		word := p.parseName()
		if word == "" {
			return "", "", p.errf("expected a literal")
		}
		return word, "", nil
	}
}

// eatKeyword consumes the keyword when it appears as a whole word at the
// current position.
func (p *parser) eatKeyword(kw string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], kw) {
		return false
	}
	rest := p.src[p.pos+len(kw):]
	if rest != "" && isNameByte(rest[0]) {
		return false
	}
	p.pos += len(kw)
	return true
}

func (p *parser) parseName() string {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

func isNameByte(c byte) bool {
	return c == '-' || c == '_' || c == '.' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}
