package xpath

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// referenceSimplify is Simplify as a plain bottom-up rebuild: every
// composite node goes back through its Make* constructor whether or not
// a law fires. Simplify must print identically to it on every input.
func referenceSimplify(p Path) Path {
	switch p := p.(type) {
	case Seq:
		return MakeSeq(referenceSimplify(p.Left), referenceSimplify(p.Right))
	case Descend:
		return MakeDescend(referenceSimplify(p.Sub))
	case Union:
		return MakeUnion(referenceSimplify(p.Left), referenceSimplify(p.Right))
	case Qualified:
		return MakeQualified(referenceSimplify(p.Sub), referenceSimplifyQual(p.Cond))
	default:
		return p
	}
}

func referenceSimplifyQual(q Qual) Qual {
	switch q := q.(type) {
	case QPath:
		sub := referenceSimplify(q.Path)
		if IsEmpty(sub) {
			return QFalse{}
		}
		if _, ok := sub.(Self); ok {
			return QTrue{}
		}
		return QPath{Path: sub}
	case QEq:
		sub := referenceSimplify(q.Path)
		if IsEmpty(sub) {
			return QFalse{}
		}
		return QEq{Path: sub, Value: q.Value, Var: q.Var}
	case QAnd:
		return MakeAnd(referenceSimplifyQual(q.Left), referenceSimplifyQual(q.Right))
	case QOr:
		return MakeOr(referenceSimplifyQual(q.Left), referenceSimplifyQual(q.Right))
	case QNot:
		return MakeNot(referenceSimplifyQual(q.Sub))
	default:
		return q
	}
}

// checkSimplify asserts that Simplify prints like the reference, is
// structurally equal to it, and is idempotent.
func checkSimplify(t *testing.T, p Path) {
	t.Helper()
	got, want := Simplify(p), referenceSimplify(p)
	if String(got) != String(want) || !Equal(got, want) {
		t.Errorf("Simplify(%s) = %s, reference %s", String(p), String(got), String(want))
		return
	}
	if again := Simplify(got); String(again) != String(got) {
		t.Errorf("Simplify not idempotent on %s: %s then %s", String(p), String(got), String(again))
	}
}

func TestSimplifyMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		checkSimplify(t, randHospitalPath(r, 1+int(seed%5)))
		checkSimplify(t, randRawPath(r, 1+int(seed%5)))
	}
}

// TestSimplifyMatchesReferenceLaws fires each law at the root and
// beneath siblings that Simplify leaves unchanged.
func TestSimplifyMatchesReferenceLaws(t *testing.T) {
	a, b, c := L("a"), L("b"), L("c")
	ab := Seq{Left: a, Right: b}
	qb := QPath{Path: b}
	qc := QPath{Path: c}
	eq := QEq{Path: b, Value: "1"}
	laws := []Path{
		Seq{Left: Self{}, Right: a},                           // ε/x
		Seq{Left: a, Right: Self{}},                           // x/ε
		Seq{Left: a, Right: Empty{}},                          // x/∅
		Seq{Left: Empty{}, Right: a},                          // ∅/x
		Seq{Left: a, Right: Seq{Left: b, Right: c}},           // x/Seq{…}
		Seq{Left: a, Right: Seq{Left: Self{}, Right: c}},      // x/Seq{ε,…}
		Seq{Left: a, Right: Qualified{Sub: Self{}, Cond: qb}}, // p/.[q]
		Seq{Left: a, Right: Seq{Left: Qualified{Sub: Self{}, Cond: qb}, Right: c}},
		Union{Left: ab, Right: ab},                                          // p∪p
		Union{Left: Empty{}, Right: a},                                      // ∅∪p
		Union{Left: a, Right: Empty{}},                                      // p∪∅
		Union{Left: a, Right: Seq{Left: Self{}, Right: a}},                  // p∪(ε/p)
		Descend{Sub: Empty{}},                                               // //∅
		Descend{Sub: Descend{Sub: Seq{Left: a, Right: Empty{}}}},            // nested //∅
		Seq{Left: a, Right: Descend{Sub: Descend{Sub: Empty{}}}},            // nested //∅ under /
		Qualified{Sub: a, Cond: QPath{Path: Self{}}},                        // [ε]
		Qualified{Sub: a, Cond: QPath{Path: Empty{}}},                       // [∅]
		Qualified{Sub: a, Cond: QEq{Path: Empty{}, Value: "1"}},             // [∅=c]
		Qualified{Sub: a, Cond: QEq{Path: Empty{}, Var: "w"}},               // [∅=$w]
		Qualified{Sub: a, Cond: QNot{Sub: QNot{Sub: qb}}},                   // ¬¬q
		Qualified{Sub: a, Cond: QNot{Sub: QTrue{}}},                         // ¬true
		Qualified{Sub: a, Cond: QNot{Sub: QPath{Path: Empty{}}}},            // ¬[∅]
		Qualified{Sub: a, Cond: QAnd{Left: QTrue{}, Right: qb}},             // true∧q
		Qualified{Sub: a, Cond: QAnd{Left: qb, Right: QFalse{}}},            // q∧false
		Qualified{Sub: a, Cond: QOr{Left: qb, Right: QTrue{}}},              // q∨true
		Qualified{Sub: a, Cond: QOr{Left: QFalse{}, Right: qb}},             // false∨q
		Qualified{Sub: a, Cond: QAnd{Left: qb, Right: QPath{Path: Self{}}}}, // q∧[ε]
		Qualified{Sub: a, Cond: QTrue{}},                                    // p[true]
		Qualified{Sub: a, Cond: QFalse{}},                                   // p[false]
		Qualified{Sub: Empty{}, Cond: qb},                                   // ∅[q]
	}
	// Unchanged siblings around each law, at several positions.
	wrap := []func(Path) Path{
		func(p Path) Path { return p },
		func(p Path) Path { return Seq{Left: ab, Right: p} },
		func(p Path) Path { return Seq{Left: p, Right: Qualified{Sub: c, Cond: eq}} },
		func(p Path) Path { return Union{Left: ab, Right: p} },
		func(p Path) Path { return Union{Left: p, Right: Descend{Sub: c}} },
		func(p Path) Path { return Descend{Sub: Seq{Left: p, Right: c}} },
		func(p Path) Path { return Qualified{Sub: ab, Cond: QAnd{Left: qc, Right: QPath{Path: p}}} },
		func(p Path) Path { return Qualified{Sub: p, Cond: QOr{Left: qc, Right: QNot{Sub: eq}}} },
		func(p Path) Path {
			return Qualified{Sub: c, Cond: QNot{Sub: QEq{Path: Seq{Left: b, Right: p}, Var: "w"}}}
		},
	}
	for _, law := range laws {
		for _, w := range wrap {
			checkSimplify(t, w(law))
			checkSimplify(t, w(w(law)))
		}
	}
}

// randRawPath builds raw trees that reach every law, including the
// qualifier forms randHospitalPath never generates (QEq, ∧, ∨, nested
// ¬, .[q] steps).
func randRawPath(r *rand.Rand, depth int) Path {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return Self{}
		case 1:
			return Wildcard{}
		case 2:
			return Empty{}
		default:
			return L(string(rune('a' + r.Intn(3))))
		}
	}
	switch r.Intn(7) {
	case 0, 1:
		return Seq{Left: randRawPath(r, depth-1), Right: randRawPath(r, depth-1)}
	case 2:
		return Descend{Sub: randRawPath(r, depth-1)}
	case 3:
		return Union{Left: randRawPath(r, depth-1), Right: randRawPath(r, depth-1)}
	case 4:
		return Qualified{Sub: Self{}, Cond: randRawQual(r, depth-1)}
	case 5:
		return Qualified{Sub: randRawPath(r, depth-1), Cond: randRawQual(r, depth-1)}
	default:
		return randRawPath(r, 0)
	}
}

func randRawQual(r *rand.Rand, depth int) Qual {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return QTrue{}
		case 1:
			return QFalse{}
		default:
			return QPath{Path: randRawPath(r, 0)}
		}
	}
	switch r.Intn(7) {
	case 0:
		return QPath{Path: randRawPath(r, depth-1)}
	case 1:
		return QEq{Path: randRawPath(r, depth-1), Value: "1"}
	case 2:
		return QAnd{Left: randRawQual(r, depth-1), Right: randRawQual(r, depth-1)}
	case 3:
		return QOr{Left: randRawQual(r, depth-1), Right: randRawQual(r, depth-1)}
	case 4:
		return QNot{Sub: randRawQual(r, depth-1)}
	case 5:
		return QNot{Sub: QNot{Sub: randRawQual(r, depth-1)}}
	default:
		return randRawQual(r, 0)
	}
}

// TestSimplifySharesUnchangedSubtrees: a law firing at one leaf rebuilds
// only the spine above it; the sibling subtrees come back as the very
// values passed in.
func TestSimplifySharesUnchangedSubtrees(t *testing.T) {
	left := MustParse("//patient[treatment//medication]/name")
	p := Seq{Left: left, Right: Seq{Left: L("x"), Right: Self{}}}
	got, ok := Simplify(p).(Seq)
	if !ok {
		t.Fatalf("Simplify = %T, want Seq", Simplify(p))
	}
	if !sameBox(got.Left, left) {
		t.Errorf("unchanged left operand was copied")
	}
}

// sameBox reports whether two interface values point at one boxed node.
func sameBox(a, b Path) bool {
	data := func(p *Path) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(p))[1] }
	return data(&a) == data(&b)
}

// Vars must name the parameters in the order the Subqueries-based walk
// did: children (and the paths inside a qualifier) before the node.
func TestVarsOrder(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{"a/b", nil},
		{"a[b = $x]", []string{"x"}},
		{"a[c = $x and b[d = $y]]", []string{"y", "x"}},
		{"a[b[c = $x] = $y]/d[e = $x]", []string{"x", "y"}},
		{"(a[b = $z] | c[not(d = $y or e = $z)])//f[g = $w]", []string{"z", "y", "w"}},
	} {
		if got := Vars(MustParse(tc.src)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Vars(%s) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestVarsAllocFree(t *testing.T) {
	p := MustParse("//patient[treatment//medication and not(bill)]/name | dept/*[wardNo = \"1\"]")
	if n := testing.AllocsPerRun(100, func() { _ = Vars(p) }); n != 0 {
		t.Errorf("Vars on a variable-free query: %v allocs, want 0", n)
	}
}
