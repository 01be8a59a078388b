package xpath

// Simplify rewrites the query into an equivalent, usually smaller query
// by applying the algebraic laws of the fragment:
//
//	∅ ∪ p ≡ p            p/∅ ≡ ∅/p ≡ ∅          //∅ ≡ ∅
//	ε/p ≡ p/ε ≡ p        p ∪ p ≡ p              p/(.[q]) ≡ p[q]
//	p[true] ≡ p          p[false] ≡ ∅            ∅[q] ≡ ∅
//	¬¬q ≡ q              true ∧ q ≡ q            false ∧ q ≡ false
//	true ∨ q ≡ true      false ∨ q ≡ q           [∅] ≡ [∅ = c] ≡ false
//	[ε] ≡ true           p/(p1/p2) ≡ (p/p1)/p2
//	(p1 ∪ p2)/p ≡ p1/p ∪ p2/p is NOT applied (it can grow the query).
//
// Rewriting and optimization call Simplify on their outputs so dead
// branches introduced by mechanical construction disappear.
//
// ASTs are immutable values, so Simplify shares what it does not
// change: a node none of whose laws fire and whose children come back
// unchanged is returned as its argument's own interface value, not a
// copy, and only the spine above a node where a law fires is rebuilt
// (through the Make* constructors). Simplifying an already simplified
// query therefore allocates nothing.
func Simplify(p Path) Path {
	out, _ := simplify(p)
	return out
}

// SimplifyQual applies the boolean and path laws inside a qualifier,
// sharing unchanged subtrees as Simplify does.
func SimplifyQual(q Qual) Qual {
	out, _ := simplifyQual(q)
	return out
}

// simplify returns the simplified path and whether it differs from p.
// When it does not, the returned value is p itself: returning the type
// switch's variable instead would box a fresh copy of the node.
func simplify(p Path) (Path, bool) {
	switch n := p.(type) {
	case Seq:
		l, lc := simplify(n.Left)
		r, rc := simplify(n.Right)
		if !lc && !rc && !seqLawFires(l, r) {
			return p, false
		}
		return MakeSeq(l, r), true
	case Descend:
		s, sc := simplify(n.Sub)
		if !sc && !IsEmpty(s) {
			return p, false
		}
		return MakeDescend(s), true
	case Union:
		l, lc := simplify(n.Left)
		r, rc := simplify(n.Right)
		if !lc && !rc && !IsEmpty(l) && !IsEmpty(r) && !Equal(l, r) {
			return p, false
		}
		return MakeUnion(l, r), true
	case Qualified:
		s, sc := simplify(n.Sub)
		c, cc := simplifyQual(n.Cond)
		if !sc && !cc && !IsEmpty(s) && !isConst(c) {
			return p, false
		}
		return MakeQualified(s, c), true
	default:
		return p, false
	}
}

// seqLawFires reports whether MakeSeq(l, r) would build anything other
// than Seq{l, r}.
func seqLawFires(l, r Path) bool {
	switch l.(type) {
	case Empty, Self:
		return true
	}
	switch r := r.(type) {
	case Empty, Self, Seq:
		return true
	case Qualified:
		_, self := r.Sub.(Self)
		return self
	}
	return false
}

// isConst reports whether q is QTrue or QFalse.
func isConst(q Qual) bool {
	switch q.(type) {
	case QTrue, QFalse:
		return true
	}
	return false
}

// simplifyQual is simplify for qualifiers.
func simplifyQual(q Qual) (Qual, bool) {
	switch n := q.(type) {
	case QPath:
		sub, sc := simplify(n.Path)
		switch sub.(type) {
		case Empty:
			return QFalse{}, true
		case Self:
			return QTrue{}, true
		}
		if !sc {
			return q, false
		}
		return QPath{Path: sub}, true
	case QEq:
		sub, sc := simplify(n.Path)
		if IsEmpty(sub) {
			return QFalse{}, true
		}
		if !sc {
			return q, false
		}
		return QEq{Path: sub, Value: n.Value, Var: n.Var}, true
	case QAnd:
		l, lc := simplifyQual(n.Left)
		r, rc := simplifyQual(n.Right)
		if !lc && !rc && !isConst(l) && !isConst(r) {
			return q, false
		}
		return MakeAnd(l, r), true
	case QOr:
		l, lc := simplifyQual(n.Left)
		r, rc := simplifyQual(n.Right)
		if !lc && !rc && !isConst(l) && !isConst(r) {
			return q, false
		}
		return MakeOr(l, r), true
	case QNot:
		s, sc := simplifyQual(n.Sub)
		if _, dbl := s.(QNot); !sc && !dbl && !isConst(s) {
			return q, false
		}
		return MakeNot(s), true
	default:
		return q, false
	}
}
