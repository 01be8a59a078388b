package xpath_test

// Differential property suite for the ordinal (bitset) evaluation path:
// on randomized (DTD, document, query) triples, evaluating over a
// compacted document — which takes the bitset path — must agree exactly
// with evaluating over an uncompacted structural twin of the same tree,
// which takes the pointer-slice path. Structural twins get identical
// preorder numbering, so agreement is checked ordinal by ordinal. The
// suite also pins the two safety edges of the representation gate: a
// detached (never-renumbered) context falls back to the slice path with
// the same answers, and ordinal answer-cache entries die with the
// numbering that defined them when the arena is swapped out underneath
// them (Document.Generation). A qualifier-heavy family pins the
// node-local qualifier walk against the set-at-a-time form it replaced
// and against the plain reference walk.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// sliceTwin builds an uncompacted document with the exact node
// structure of doc. Renumbering assigns both trees the same preorder
// ordinals, but the twin fails the Compacted() gate, so it always
// evaluates over node slices.
func sliceTwin(t *testing.T, doc *xmltree.Document) *xmltree.Document {
	t.Helper()
	twin := xmltree.NewDocument(doc.Root.Clone())
	if twin.Size() != doc.Size() {
		t.Fatalf("twin size %d != doc size %d", twin.Size(), doc.Size())
	}
	if xpath.OrdinalApplicable(twin) {
		t.Fatal("structural twin must not pass the ordinal gate")
	}
	if !xpath.OrdinalApplicable(doc) {
		t.Fatal("generated document must pass the ordinal gate")
	}
	return twin
}

// assertSameOrds fails unless got and want are the same nodes by
// preorder ordinal and label — the cross-document equality for
// structural twins.
func assertSameOrds(t *testing.T, label string, got, want []*xmltree.Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d nodes, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Ord() != want[i].Ord() || got[i].Label != want[i].Label {
			t.Fatalf("%s: node %d is ord %d (%s), want ord %d (%s)",
				label, i, got[i].Ord(), got[i].Label, want[i].Ord(), want[i].Label)
		}
	}
}

// TestDifferentialBitsetVsSlice sweeps ~200 randomized (DTD, document,
// query) triples through both representations: the compacted document
// takes the bitset path for sequential and indexed evaluation, its
// uncompacted twin takes the slice path, and the two must agree at the
// root and at random subcontexts.
func TestDifferentialBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
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
			want, err := xpath.EvalDocErr(p, twin)
			if err != nil {
				t.Fatalf("slice eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "slice "+xpath.String(p), want)

			got, err := xpath.EvalDocErr(p, doc)
			if err != nil {
				t.Fatalf("bitset eval error on %s: %v", xpath.String(p), err)
			}
			assertSortedUnique(t, "bitset "+xpath.String(p), got)
			assertSameOrds(t, "bitset ≠ slice on "+xpath.String(p)+"\nDTD:\n"+src, got, want)

			gotIdx, err := xpath.EvalIndexedCtx(nil, p, idx)
			if err != nil {
				t.Fatalf("indexed bitset eval error on %s: %v", xpath.String(p), err)
			}
			assertSameOrds(t, "indexed bitset ≠ slice on "+xpath.String(p), gotIdx, want)

			// Subcontext leg: the same random ordinals as context in both
			// documents (duplicates and ancestor/descendant overlap
			// included) exercise the interval fills away from the root.
			ctx := make([]*xmltree.Node, 1+r.Intn(4))
			twinCtx := make([]*xmltree.Node, len(ctx))
			for i := range ctx {
				ord := r.Intn(doc.Size())
				ctx[i] = doc.Nodes()[ord]
				twinCtx[i] = twin.Nodes()[ord]
			}
			wantAt, err := xpath.EvalAtCtx(nil, p, twinCtx)
			if err != nil {
				t.Fatalf("slice EvalAtCtx error on %s: %v", xpath.String(p), err)
			}
			gotAt, err := xpath.EvalAtCtx(nil, p, ctx)
			if err != nil {
				t.Fatalf("bitset EvalAtCtx error on %s: %v", xpath.String(p), err)
			}
			assertSameOrds(t, "bitset@ctx ≠ slice@ctx on "+xpath.String(p), gotAt, wantAt)
		}
	}
}

// TestDifferentialRecBitsetVsSlice runs randomized recursive-view plans
// (Rec product search) through both representations. The automaton
// descends through arbitrary labels and accepts at a randomly chosen
// one, so the per-state bitset visited rows see real sharing and
// re-visits.
func TestDifferentialRecBitsetVsSlice(t *testing.T) {
	r := rand.New(rand.NewSource(20260809))
	for trial := 0; trial < 40; trial++ {
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
			continue
		}
		twin := sliceTwin(t, doc)
		labels := append(d.Types(), xpath.TextName)
		accept := labels[r.Intn(len(labels))]
		g := xpath.NewRecGraph(map[string][]xpath.RecEdge{
			"walk": {
				{To: "walk", Sig: xpath.Wildcard{}},
				{To: "hit", Sig: xpath.Label{Name: accept}},
			},
			"hit": nil,
		})
		rec := xpath.Rec{G: g, Start: "walk", Accept: "hit", ResultLabel: accept}
		var plan xpath.Path = rec
		if r.Intn(2) == 0 {
			plan = xpath.Seq{Left: randPath(r, labels, 1), Right: rec}
		}
		want, err := xpath.EvalDocErr(plan, twin)
		if err != nil {
			t.Fatalf("slice rec eval: %v", err)
		}
		got, err := xpath.EvalDocErr(plan, doc)
		if err != nil {
			t.Fatalf("bitset rec eval: %v", err)
		}
		assertSameOrds(t, fmt.Sprintf("rec accept=%s trial %d", accept, trial), got, want)
	}
}

// TestBitsetDetachedNodeFallback: context nodes that were never part of
// a renumbered document (Owner nil) must fall back to the slice path
// and still produce the slice path's answers. Detached nodes carry no
// usable ordinals, so equality is checked as a multiset of label paths.
func TestBitsetDetachedNodeFallback(t *testing.T) {
	r := rand.New(rand.NewSource(20260810))
	for trial := 0; trial < 30; trial++ {
		src := randomDTDSource(r)
		d, err := dtd.Parse(src)
		if err != nil {
			t.Fatalf("random DTD does not parse: %v\n%s", err, src)
		}
		doc := xmlgen.Generate(d, xmlgen.Config{
			Seed:      r.Int63(),
			MinRepeat: 1,
			MaxRepeat: 2,
			MaxDepth:  5,
		})
		if doc.Size() > 800 {
			continue
		}
		// Clone the tree and never hand it to a Document: every node is
		// detached (Owner nil), so ordinalDoc must reject the context.
		detached := doc.Root.Clone()
		if detached.Owner() != nil {
			t.Fatal("clone unexpectedly owned")
		}
		labels := append(d.Types(), xpath.TextName)
		for q := 0; q < 5; q++ {
			p := randPath(r, labels, 2)
			want, err := xpath.EvalDocErr(p, doc)
			if err != nil {
				t.Fatalf("doc eval error on %s: %v", xpath.String(p), err)
			}
			got, err := xpath.EvalAtCtx(nil, p, []*xmltree.Node{detached})
			if err != nil {
				t.Fatalf("detached eval error on %s: %v", xpath.String(p), err)
			}
			// Without document-order numbering the slice path cannot
			// dedup by position, so a union may repeat a pointer; the
			// node set underneath must still match.
			gotPaths := labelPaths(uniqueNodes(got))
			wantPaths := labelPaths(want)
			if len(gotPaths) != len(wantPaths) {
				t.Fatalf("detached ≠ doc on %s: got %d nodes, want %d", xpath.String(p), len(got), len(want))
			}
			for i := range wantPaths {
				if gotPaths[i] != wantPaths[i] {
					t.Fatalf("detached ≠ doc on %s: path %d is %s, want %s",
						xpath.String(p), i, gotPaths[i], wantPaths[i])
				}
			}
		}
	}
}

func uniqueNodes(nodes []*xmltree.Node) []*xmltree.Node {
	seen := make(map[*xmltree.Node]bool, len(nodes))
	out := nodes[:0:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

func labelPaths(nodes []*xmltree.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Path()
	}
	sort.Strings(out)
	return out
}

// TestBitsetSurvivesArenaSwap: evaluation stays correct across
// Compact/Renumber cycles that swap the arena and bump the generation —
// results obtained before a swap refer to the old (still valid) nodes,
// results after the swap to the new arena, and both agree with the
// slice twin.
func TestBitsetSurvivesArenaSwap(t *testing.T) {
	r := rand.New(rand.NewSource(20260811))
	src := randomDTDSource(r)
	d, err := dtd.Parse(src)
	if err != nil {
		t.Fatalf("random DTD does not parse: %v", err)
	}
	doc := xmlgen.Generate(d, xmlgen.Config{Seed: 11, MinRepeat: 1, MaxRepeat: 3, MaxDepth: 5})
	twin := sliceTwin(t, doc)
	labels := append(d.Types(), xpath.TextName)
	p := xpath.Descend{Sub: xpath.Label{Name: labels[0]}}

	want, err := xpath.EvalDocErr(p, twin)
	if err != nil {
		t.Fatal(err)
	}
	before, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrds(t, "pre-swap", before, want)

	gen := doc.Generation()
	doc.Compact() // swap the arena out from under any held ordinals
	if doc.Generation() == gen {
		t.Fatal("Compact did not advance the generation")
	}
	after, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOrds(t, "post-swap", after, want)
	// The pre-swap results still point at the old tree's nodes; their
	// labels (though not their ownership) must be unchanged.
	for i := range before {
		if before[i].Label != after[i].Label {
			t.Fatalf("node %d label changed across swap: %s vs %s", i, before[i].Label, after[i].Label)
		}
	}
}

// randQualHeavy draws from the qualifier family the node-local walk
// must decide: nested qualifiers, and/or/not, unions and wildcards
// inside [...], // inside [...], and string comparisons against
// constants taken from the document, so that many of them hit.
func randQualHeavy(r *rand.Rand, labels, consts []string, depth int) xpath.Qual {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return xpath.QEq{Path: randQualPath(r, labels, consts, 0), Value: consts[r.Intn(len(consts))]}
		}
		return xpath.QPath{Path: randQualPath(r, labels, consts, 0)}
	}
	switch r.Intn(7) {
	case 0:
		return xpath.QAnd{Left: randQualHeavy(r, labels, consts, depth-1), Right: randQualHeavy(r, labels, consts, depth-1)}
	case 1:
		return xpath.QOr{Left: randQualHeavy(r, labels, consts, depth-1), Right: randQualHeavy(r, labels, consts, depth-1)}
	case 2:
		return xpath.QNot{Sub: randQualHeavy(r, labels, consts, depth-1)}
	case 3, 4:
		return xpath.QEq{Path: randQualPath(r, labels, consts, depth-1), Value: consts[r.Intn(len(consts))]}
	default:
		return xpath.QPath{Path: randQualPath(r, labels, consts, depth-1)}
	}
}

// randQualPath draws a path to sit inside a qualifier.
func randQualPath(r *rand.Rand, labels, consts []string, depth int) xpath.Path {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return xpath.Self{}
		case 1:
			return xpath.Wildcard{}
		case 2:
			return xpath.Descend{Sub: xpath.Label{Name: labels[r.Intn(len(labels))]}}
		default:
			return xpath.Label{Name: labels[r.Intn(len(labels))]}
		}
	}
	sub := func() xpath.Path { return randQualPath(r, labels, consts, depth-1) }
	switch r.Intn(8) {
	case 0, 1:
		return xpath.Seq{Left: sub(), Right: sub()}
	case 2:
		return xpath.Descend{Sub: sub()}
	case 3:
		return xpath.Union{Left: sub(), Right: sub()}
	case 4:
		return xpath.Qualified{Sub: sub(), Cond: randQualHeavy(r, labels, consts, depth-1)}
	case 5:
		return xpath.Empty{}
	default:
		return randQualPath(r, labels, consts, 0)
	}
}

// docConsts collects string values to compare against: every node's
// Text(), plus a strict prefix and an over-long extension of some.
func docConsts(r *rand.Rand, doc *xmltree.Document) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, n := range doc.Nodes() {
		v := n.Text()
		add(v)
		if v != "" && r.Intn(4) == 0 {
			add(v[:r.Intn(len(v))])
			add(v + "x")
		}
	}
	sort.Strings(out)
	return out
}

// withMixedContent returns a compacted copy of doc in which some
// single-text elements became mixed content: the text is split at a
// random byte, and the halves are separated by a new element (labelled
// from labels) or left adjacent, so string values span several text
// children.
func withMixedContent(r *rand.Rand, doc *xmltree.Document, labels []string) *xmltree.Document {
	root := doc.Root.Clone()
	var targets []*xmltree.Node
	root.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.ElementNode && len(n.Children) == 1 &&
			n.Children[0].Kind == xmltree.TextNode && r.Intn(3) == 0 {
			targets = append(targets, n)
		}
		return true
	})
	for _, n := range targets {
		data := n.Children[0].Data
		k := r.Intn(len(data) + 1)
		n.Children = nil
		n.AppendChild(xmltree.NewText(data[:k]))
		if r.Intn(3) != 0 {
			n.AppendChild(xmltree.T(labels[r.Intn(len(labels))], "m"))
		}
		n.AppendChild(xmltree.NewText(data[k:]))
	}
	out := xmltree.NewDocument(root)
	out.Compact()
	return out
}

// qualTally counts how the checked (qualifier, node) pairs came out, so
// a sweep can prove it exercised both answers.
type qualTally struct{ checks, hits int }

// checkQualForms decides q at every node of doc three ways — the
// node-local walk, the set-at-a-time pathAtNode form, and the plain
// reference walk on the uncompacted twin — and fails on any
// disagreement.
func checkQualForms(t *testing.T, label string, doc, twin *xmltree.Document, q xpath.Qual, tally *qualTally) {
	t.Helper()
	for ord, v := range doc.Nodes() {
		local, err := xpath.QualNodeLocal(q, v)
		if err != nil {
			t.Fatalf("%s: node-local %s: %v", label, xpath.QualString(q), err)
		}
		set, err := xpath.QualSetAtATime(q, v)
		if err != nil {
			t.Fatalf("%s: set-at-a-time %s: %v", label, xpath.QualString(q), err)
		}
		ref, err := xpath.EvalQualErr(q, twin.Nodes()[ord])
		if err != nil {
			t.Fatalf("%s: reference walk %s: %v", label, xpath.QualString(q), err)
		}
		if local != set || local != ref {
			t.Fatalf("%s: [%s] at %s (ord %d): node-local %v, set-at-a-time %v, reference %v",
				label, xpath.QualString(q), v.Path(), ord, local, set, ref)
		}
		tally.checks++
		if local {
			tally.hits++
		}
	}
}

// checkQualifiedPlan evaluates //*[q] over the compacted document
// (bitset path, sequential and indexed) and over its twin (slice path).
func checkQualifiedPlan(t *testing.T, label string, doc, twin *xmltree.Document, q xpath.Qual) {
	t.Helper()
	p := xpath.Descend{Sub: xpath.Qualified{Sub: xpath.Wildcard{}, Cond: q}}
	want, err := xpath.EvalDocErr(p, twin)
	if err != nil {
		t.Fatalf("%s: slice eval %s: %v", label, xpath.String(p), err)
	}
	got, err := xpath.EvalDocErr(p, doc)
	if err != nil {
		t.Fatalf("%s: bitset eval %s: %v", label, xpath.String(p), err)
	}
	assertSameOrds(t, label+": bitset ≠ slice on "+xpath.String(p), got, want)
	gotIdx, err := xpath.EvalIndexedCtx(nil, p, xpath.NewIndex(doc))
	if err != nil {
		t.Fatalf("%s: indexed eval %s: %v", label, xpath.String(p), err)
	}
	assertSameOrds(t, label+": indexed ≠ slice on "+xpath.String(p), gotIdx, want)
}

// TestDifferentialQualifierFamilyHospital runs the qualifier-heavy
// family on hospital documents, plain and with mixed content.
func TestDifferentialQualifierFamilyHospital(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	labels := append(dtds.Hospital().Types(), xpath.TextName)
	var tally qualTally
	for trial := 0; trial < 8; trial++ {
		doc := dtds.GenerateHospital(int64(trial), 2+r.Intn(3))
		if trial%2 == 1 {
			doc = withMixedContent(r, doc, labels)
		}
		twin := sliceTwin(t, doc)
		consts := docConsts(r, doc)
		for i := 0; i < 25; i++ {
			q := randQualHeavy(r, labels, consts, 3)
			name := fmt.Sprintf("hospital trial %d (%d nodes)", trial, doc.Size())
			checkQualForms(t, name, doc, twin, q, &tally)
			checkQualifiedPlan(t, name, doc, twin, q)
		}
	}
	t.Logf("%d checks, %d held", tally.checks, tally.hits)
	if tally.hits == 0 || tally.hits == tally.checks {
		t.Fatalf("degenerate sweep: %d of %d checks held", tally.hits, tally.checks)
	}
}

// TestDifferentialQualifierFamilyRecursive runs the family on documents
// of random recursive DTDs, with qualifier-bearing plans rewritten over
// their recursive security views: those plans carry Rec steps inside
// qualifiers, which take the set-at-a-time fallback inside the walk.
func TestDifferentialQualifierFamilyRecursive(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	var tally qualTally
	recQuals := 0
	for trial := 0; trial < 30; trial++ {
		spec := dtds.RandomRecursiveSpec(r, dtds.RecursiveGen{
			Depth:     3 + r.Intn(3),
			Branching: 1 + r.Intn(2),
			Density:   0.3 + r.Float64()*0.4,
		})
		doc := xmlgen.Generate(spec.D, xmlgen.Config{
			Seed: r.Int63(), MinRepeat: 1, MaxRepeat: 2, MaxDepth: 10, MaxNodes: 400,
		})
		labels := append(spec.D.Types(), xpath.TextName)
		if trial%2 == 1 {
			doc = withMixedContent(r, doc, labels)
		}
		twin := sliceTwin(t, doc)
		consts := docConsts(r, doc)
		name := fmt.Sprintf("recursive trial %d (%d nodes, height %d)", trial, doc.Size(), doc.Height())
		quals := []xpath.Qual{recQual(r, labels, consts), randQualHeavy(r, labels, consts, 2)}
		if v, err := secview.Derive(spec); err == nil && v.IsRecursive() {
			if rw, err := rewrite.ForView(v); err == nil {
				viewLabels := append(v.DTD.Types(), xpath.TextName)
				for i := 0; i < 3; i++ {
					q := xpath.Descend{Sub: xpath.Qualified{
						Sub:  xpath.Wildcard{},
						Cond: randQualHeavy(r, viewLabels, consts, 2),
					}}
					plan, err := rw.Rewrite(q)
					if err != nil {
						continue
					}
					// A rewritten plan repeats its view qualifiers on
					// many σ edges; a few Rec-bearing ones suffice.
					n := 0
					for _, pq := range planQuals(plan) {
						if n < 2 && qualHasRec(pq) {
							quals = append(quals, pq)
							n++
						}
					}
				}
			}
		}
		for _, q := range quals {
			if qualHasRec(q) {
				recQuals++
			}
			checkQualForms(t, name, doc, twin, q, &tally)
		}
		checkQualifiedPlan(t, name, doc, twin, quals[0])
	}
	t.Logf("%d checks, %d held, %d Rec-bearing qualifiers", tally.checks, tally.hits, recQuals)
	if recQuals < 40 {
		t.Fatalf("only %d qualifiers carried a Rec step; the fallback went untested", recQuals)
	}
	if tally.hits == 0 || tally.hits == tally.checks {
		t.Fatalf("degenerate sweep: %d of %d checks held", tally.hits, tally.checks)
	}
}

// recQual builds a qualifier around a hand-made Rec automaton that
// walks any number of element steps and accepts at a random label, in
// the existential and the string-comparison forms.
func recQual(r *rand.Rand, labels, consts []string) xpath.Qual {
	accept := labels[r.Intn(len(labels))]
	g := xpath.NewRecGraph(map[string][]xpath.RecEdge{
		"walk": {
			{To: "walk", Sig: xpath.Wildcard{}},
			{To: "hit", Sig: xpath.Label{Name: accept}},
		},
		"hit": nil,
	})
	rec := xpath.Rec{G: g, Start: "walk", Accept: "hit", ResultLabel: accept}
	if r.Intn(2) == 0 {
		return xpath.QPath{Path: xpath.Seq{Left: rec, Right: randQualPath(r, labels, consts, 1)}}
	}
	return xpath.QEq{Path: rec, Value: consts[r.Intn(len(consts))]}
}

// planQuals collects every qualifier of a plan, including those on the
// σ edges of its Rec steps.
func planQuals(p xpath.Path) []xpath.Qual {
	var out []xpath.Qual
	for _, sub := range xpath.Subqueries(p) {
		switch sub := sub.(type) {
		case xpath.Qualified:
			out = append(out, sub.Cond)
		case xpath.Rec:
			for _, s := range sub.G.States() {
				for _, e := range sub.G.EdgesFrom(s) {
					out = append(out, planQuals(e.Sig)...)
				}
			}
		}
	}
	return out
}

// qualHasRec reports whether a Rec step occurs in q's paths.
func qualHasRec(q xpath.Qual) bool {
	for _, sub := range xpath.Subqueries(xpath.Qualified{Sub: xpath.Self{}, Cond: q}) {
		if _, ok := sub.(xpath.Rec); ok {
			return true
		}
	}
	return false
}
