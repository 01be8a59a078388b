package xpath_test

// Differential property suite: on randomized (DTD, document, query)
// triples, the indexed bitset evaluator must agree with the slice
// reference walk exactly — same node set, same document order, no
// duplicates. Hand-written equivalence cases only cover the query shapes
// their authors thought of; the randomized sweep pins the ≡ down across
// the whole fragment, including the degenerate shapes (∅, ε, deep
// unions, qualifier nests) that tend to hide interval and posting-list
// bugs.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// randomDTDSource emits a small random DTD in the compact syntax:
// element types e0..ek where ei's production draws children from the
// types after it (always terminating), as a sequence, a choice, a star,
// or #PCDATA. The last two types are always text so every shape can
// bottom out.
func randomDTDSource(r *rand.Rand) string {
	n := 4 + r.Intn(5) // 4..8 element types
	name := func(i int) string { return fmt.Sprintf("e%d", i) }
	src := "root e0\n"
	for i := 0; i < n; i++ {
		if i >= n-2 {
			src += name(i) + " -> #PCDATA\n"
			continue
		}
		pick := func() string { return name(i + 1 + r.Intn(n-i-1)) }
		switch r.Intn(4) {
		case 0: // star of one child type
			src += name(i) + " -> " + pick() + "*\n"
		case 1: // choice
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			src += name(i) + " -> " + a + " + " + b + "\n"
		case 2: // sequence, possibly with starred items
			k := 1 + r.Intn(3)
			if avail := n - i - 1; k > avail {
				k = avail // distinct types to draw from run out near the tail
			}
			seen := map[string]bool{}
			var items []string
			for len(items) < k {
				c := pick()
				if seen[c] {
					continue
				}
				seen[c] = true
				if r.Intn(3) == 0 {
					c += "*"
				}
				items = append(items, c)
			}
			src += name(i) + " -> " + join(items) + "\n"
		default: // text interior node
			src += name(i) + " -> #PCDATA\n"
		}
	}
	return src
}

func join(items []string) string {
	out := items[0]
	for _, s := range items[1:] {
		out += ", " + s
	}
	return out
}

// randPath draws a random query AST over the DTD's labels. depth bounds
// the recursion so queries stay evaluable.
func randPath(r *rand.Rand, labels []string, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		default:
			return xpath.Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	switch r.Intn(10) {
	case 0:
		return xpath.Empty{}
	case 1:
		return xpath.Self{}
	case 2:
		return xpath.Wildcard{}
	case 3, 4:
		return xpath.Label{Name: labels[r.Intn(len(labels))]}
	case 5:
		return xpath.Seq{Left: randPath(r, labels, depth-1), Right: randPath(r, labels, depth-1)}
	case 6:
		return xpath.Descend{Sub: randPath(r, labels, depth-1)}
	case 7:
		return xpath.Union{Left: randPath(r, labels, depth-1), Right: randPath(r, labels, depth-1)}
	default:
		return xpath.Qualified{Sub: randPath(r, labels, depth-1), Cond: randQual(r, labels, depth-1)}
	}
}

func randQual(r *rand.Rand, labels []string, depth int) xpath.Qual {
	if depth <= 0 {
		return xpath.QPath{Path: xpath.Label{Name: labels[r.Intn(len(labels))]}}
	}
	switch r.Intn(8) {
	case 0:
		return xpath.QTrue{}
	case 1:
		return xpath.QFalse{}
	case 2:
		// xmlgen's default Value hook yields v0..v9, so some of these hit.
		return xpath.QEq{Path: randPath(r, labels, depth-1), Value: fmt.Sprintf("v%d", r.Intn(10))}
	case 3:
		return xpath.QAnd{Left: randQual(r, labels, depth-1), Right: randQual(r, labels, depth-1)}
	case 4:
		return xpath.QOr{Left: randQual(r, labels, depth-1), Right: randQual(r, labels, depth-1)}
	case 5:
		return xpath.QNot{Sub: randQual(r, labels, depth-1)}
	default:
		return xpath.QPath{Path: randPath(r, labels, depth-1)}
	}
}

// assertSortedUnique fails if nodes are out of document order or
// duplicated — the evaluator's output invariant.
func assertSortedUnique(t *testing.T, label string, nodes []*xmltree.Node) {
	t.Helper()
	seen := make(map[*xmltree.Node]bool, len(nodes))
	for i, n := range nodes {
		if seen[n] {
			t.Fatalf("%s: duplicate node %s at position %d", label, n.Path(), i)
		}
		seen[n] = true
		if i > 0 && nodes[i-1].Ord() >= n.Ord() {
			t.Fatalf("%s: out of document order at position %d", label, i)
		}
	}
}

// largeDocDTD generates documents of a few thousand nodes with deep
// descendant chains at Seed 7, MaxRepeat 9.
const largeDocDTD = `
root e0
e0 -> e1*
e1 -> e2, e3*
e2 -> e4*
e3 -> e4, e5
e4 -> e5*
e5 -> #PCDATA
`

// TestDifferentialIndexedVsSequential sweeps ~200 randomized (DTD,
// document, query) triples through the indexed evaluator, checking the
// indexed ≡ sequential equivalence against the slice reference walk on
// the uncompacted twin, at the document root and at random
// subcontexts. This is the suite that licenses serving traffic from the
// label index: any divergence here is a policy-enforcement bug, not a
// performance bug.
func TestDifferentialIndexedVsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	triples := 0
	for triples < 200 {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2 + r.Intn(3),
			MaxDepth:  6,
		})
		if doc.Size() > 1500 {
			continue // nested Descend qualifiers are superlinear; keep the sweep fast
		}
		twin := sliceTwin(t, doc)
		idx := xpath.NewIndex(doc)
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			triples++
			p := randPath(r, labels, 3)
			want, seqErr := xpath.EvalDocErr(p, twin)
			if seqErr != nil {
				t.Fatalf("sequential eval error on %s: %v", xpath.String(p), seqErr)
			}
			got, err := xpath.EvalIndexedCtx(nil, p, idx)
			if err != nil {
				t.Fatalf("indexed eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "indexed "+xpath.String(p), got)
			assertSameOrds(t, "indexed ≠ sequential on "+xpath.String(p)+"\nDTD:\n"+src, got, want)

			// Subcontext leg: a random context set (possibly with
			// duplicates and ancestor/descendant overlap) exercises the
			// selectivity gate and the posting-list cover filter.
			ctx := make([]*xmltree.Node, 1+r.Intn(4))
			twinCtx := make([]*xmltree.Node, len(ctx))
			for i := range ctx {
				ord := r.Intn(doc.Size())
				ctx[i], twinCtx[i] = doc.Nodes()[ord], twin.Nodes()[ord]
			}
			wantAt, err := xpath.EvalAtCtx(nil, p, twinCtx)
			if err != nil {
				t.Fatalf("sequential EvalAtCtx error on %s: %v", xpath.String(p), err)
			}
			gotAt, err := xpath.EvalIndexedAt(p, idx, ctx)
			if err != nil {
				t.Fatalf("indexed subcontext error on %s: %v", xpath.String(p), err)
			}
			assertSameOrds(t, "indexed@ctx ≠ sequential@ctx on "+xpath.String(p), gotAt, wantAt)
		}
	}
}

// TestDifferentialLargeDocPartitioning repeats the bitset ≡ slice check
// on a document of a few thousand nodes, so the bitset Descend and
// qualifier paths run over many words of the node set, not just the
// first one or two that small generated documents fill.
func TestDifferentialLargeDocPartitioning(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	d := dtd.MustParse(largeDocDTD)
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 7, MinRepeat: 2, MaxRepeat: 9, MaxDepth: 10})
	if doc.Size() < 1000 {
		t.Fatalf("generated doc too small: %d nodes", doc.Size())
	}
	twin := sliceTwin(t, doc)
	labels := append(d.Types(), xpath.TextName)
	for i := 0; i < 25; i++ {
		p := randPath(r, labels, 2)
		want, err := xpath.EvalDocErr(p, twin)
		if err != nil {
			t.Fatalf("slice: %v", err)
		}
		got, err := xpath.EvalDocErr(p, doc)
		if err != nil {
			t.Fatalf("bitset: %v", err)
		}
		assertSameOrds(t, "large-doc bitset on "+xpath.String(p), got, want)
	}
}

// TestDifferentialIndexedLargeDoc repeats the indexed ≡ slice check on a
// document well past the serving index threshold (512 nodes), big enough
// that the selectivity heuristic actually chooses the posting-list path
// for whole-document descends.
func TestDifferentialIndexedLargeDoc(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	d := dtd.MustParse(largeDocDTD)
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 7, MinRepeat: 2, MaxRepeat: 9, MaxDepth: 10})
	if doc.Size() < 1000 {
		t.Fatalf("generated doc too small: %d nodes", doc.Size())
	}
	twin := sliceTwin(t, doc)
	idx := xpath.NewIndex(doc)
	labels := append(d.Types(), xpath.TextName)
	check := func(p xpath.Path) {
		t.Helper()
		want, err := xpath.EvalDocErr(p, twin)
		if err != nil {
			t.Fatalf("slice: %v", err)
		}
		got, err := xpath.EvalIndexedCtx(nil, p, idx)
		if err != nil {
			t.Fatalf("indexed: %v", err)
		}
		assertSameOrds(t, "large-doc indexed on "+xpath.String(p), got, want)
	}
	for i := 0; i < 25; i++ {
		check(randPath(r, labels, 2))
	}
	// The canonical deep-descendant shapes, pinned explicitly.
	for _, q := range []string{"//e1//e4//e5", "//e1//e5/text()", "//e1[.//e4]//e5", "//e0//e1//e3//e5"} {
		check(xpath.MustParse(q))
	}
}

// TestEvalIndexedRejectsUnboundVars: the indexed evaluator shares the
// sequential evaluator's unbound-$variable contract.
func TestEvalIndexedRejectsUnboundVars(t *testing.T) {
	doc := xmlgen.Generate(dtd.MustParse("root e0\ne0 -> #PCDATA\n"), xmlgen.Config{Seed: 1})
	idx := xpath.NewIndex(doc)
	p := xpath.Qualified{Sub: xpath.Self{}, Cond: xpath.QEq{Path: xpath.Self{}, Var: "w"}}
	if _, err := xpath.EvalIndexedCtx(nil, p, idx); err == nil {
		t.Fatalf("unbound variable accepted by EvalIndexedCtx")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("EvalIndexed did not panic on unbound variable")
		}
	}()
	xpath.EvalIndexed(p, idx)
}
