package anscache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dtds"
	"repro/internal/optimize"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// neverProver refuses every proof, so only exact-key and syntactically
// equal hits can happen.
type neverProver struct{}

func (neverProver) Image(xpath.Path) *optimize.Image          { return nil }
func (neverProver) ContainsImage(g1, g2 *optimize.Image) bool { return false }

func hospitalDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	return xmlgen.Generate(dtds.Hospital(), xmlgen.Config{Seed: 7, MinRepeat: 2, MaxRepeat: 4, MaxDepth: 12})
}

func lookupMust(t *testing.T, c *Cache, group string, p xpath.Path, prover Prover) ([]*xmltree.Node, Kind) {
	t.Helper()
	nodes, kind, _, err := c.Lookup(context.Background(), group, xpath.String(p), p, prover)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", xpath.String(p), err)
	}
	return nodes, kind
}

func TestExactEqualHit(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	p := xpath.MustParse("//patient")
	want := xpath.EvalDoc(p, doc)
	if len(want) == 0 {
		t.Fatalf("generated document has no patients")
	}
	if _, kind := lookupMust(t, c, "g1", p, neverProver{}); kind != KindMiss {
		t.Fatalf("empty cache returned %v", kind)
	}
	c.Put("g1", xpath.String(p), p, nil, want)
	got, kind := lookupMust(t, c, "g1", p, neverProver{})
	if kind != KindEqual {
		t.Fatalf("kind = %v, want equal", kind)
	}
	if len(got) != len(want) {
		t.Fatalf("hit returned %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	// A different group must not see the entry.
	if _, kind := lookupMust(t, c, "g2", p, neverProver{}); kind != KindMiss {
		t.Fatalf("cross-group lookup returned %v", kind)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.ContainmentHits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestEquivalenceEqualHit(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	cached := xpath.MustParse("dept | //bill")
	c.Put("g", xpath.String(cached), cached, nil, xpath.EvalDoc(cached, doc))
	// Same query written differently: commuted union.
	q := xpath.MustParse("//bill | dept")
	got, kind := lookupMust(t, c, "g", q, prover)
	if kind != KindEqual {
		t.Fatalf("kind = %v, want equal", kind)
	}
	want := xpath.EvalDoc(q, doc)
	if len(got) != len(want) {
		t.Fatalf("equivalence hit returned %d nodes, want %d", len(got), len(want))
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestContainmentHit(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	base := xpath.MustParse("//patient")
	baseNodes := xpath.EvalDoc(base, doc)
	c.Put("g", xpath.String(base), base, nil, baseNodes)

	q := xpath.Qualified{Sub: base, Cond: xpath.MustParseQual(".//trial")}
	got, kind := lookupMust(t, c, "g", q, prover)
	if kind != KindContainment {
		t.Fatalf("kind = %v, want containment", kind)
	}
	want := xpath.EvalDoc(q, doc)
	if len(want) == 0 || len(want) == len(baseNodes) {
		t.Fatalf("qualifier not discriminating on this document (%d of %d); pick another seed", len(want), len(baseNodes))
	}
	if len(got) != len(want) {
		t.Fatalf("containment hit returned %d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("node %d differs", i)
		}
	}
	s := c.Stats()
	if s.ContainmentHits != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestNonContainedNeverHits is the soundness leg: a query that is not
// contained in any cached entry must miss, even when the cache is full
// of same-group entries.
func TestNonContainedNeverHits(t *testing.T) {
	c := New(16)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	for _, q := range []string{"//patient", "//bill", "dept", "//staff/nurse"} {
		p := xpath.MustParse(q)
		c.Put("g", q, p, nil, xpath.EvalDoc(p, doc))
	}
	// //name is contained in none of the cached queries (and contains
	// several of them, which must NOT produce a hit — direction matters).
	q := xpath.MustParse("//name")
	if _, kind := lookupMust(t, c, "g", q, prover); kind != KindMiss {
		t.Fatalf("non-contained query returned %v", kind)
	}
}

func TestEvictionAndBound(t *testing.T) {
	c := New(4)
	p := xpath.MustParse("dept")
	for i := 0; i < 20; i++ {
		c.Put("g", fmt.Sprintf("q%d", i), p, nil, nil)
	}
	if n := c.Len(); n > 4+len(c.shards)-1 {
		t.Errorf("Len = %d exceeds bound", n)
	}
	if c.Stats().Evictions == 0 {
		t.Errorf("no evictions recorded")
	}
}

func TestPurge(t *testing.T) {
	c := New(8)
	p := xpath.MustParse("dept")
	c.Put("g", "dept", p, nil, nil)
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
	if _, kind := lookupMust(t, c, "g", p, neverProver{}); kind != KindMiss {
		t.Errorf("purged entry still served: %v", kind)
	}
}

func TestOversizedResultNotCached(t *testing.T) {
	c := New(8)
	p := xpath.MustParse("dept")
	big := make([]*xmltree.Node, maxNodes+1)
	c.Put("g", "dept", p, nil, big)
	if c.Len() != 0 {
		t.Errorf("oversized result was cached")
	}
}

// TestHitReturnsPrivateCopy: a caller mutating a hit's slice must not
// corrupt the cached entry.
func TestHitReturnsPrivateCopy(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	p := xpath.MustParse("//patient")
	nodes := xpath.EvalDoc(p, doc)
	if len(nodes) < 2 {
		t.Fatalf("need at least 2 patients")
	}
	c.Put("g", xpath.String(p), p, nil, nodes)
	got1, _ := lookupMust(t, c, "g", p, neverProver{})
	got1[0] = got1[1] // caller scribbles on its slice
	got2, _ := lookupMust(t, c, "g", p, neverProver{})
	if got2[0] != nodes[0] {
		t.Errorf("cached entry corrupted by caller mutation")
	}
}

func TestContainmentHonorsCancellation(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	base := xpath.MustParse("//patient")
	c.Put("g", xpath.String(base), base, nil, xpath.EvalDoc(base, doc))
	q := xpath.Qualified{Sub: base, Cond: xpath.MustParseQual(".//trial")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.Lookup(ctx, "g", xpath.String(q), q, prover); err == nil {
		t.Errorf("cancelled containment lookup returned no error")
	}
}

func TestSplitQuals(t *testing.T) {
	base := xpath.MustParse("//patient")
	q1 := xpath.MustParseQual(".//trial")
	q2 := xpath.MustParseQual("name")
	p := xpath.Qualified{Sub: xpath.Qualified{Sub: base, Cond: q1}, Cond: q2}
	b, quals := splitQuals(p)
	if !xpath.Equal(b, base) {
		t.Errorf("base = %s", xpath.String(b))
	}
	if len(quals) != 2 || !xpath.QualEqual(quals[0], q1) || !xpath.QualEqual(quals[1], q2) {
		t.Errorf("quals = %v", quals)
	}
	if b, quals := splitQuals(base); !xpath.Equal(b, base) || quals != nil {
		t.Errorf("unqualified plan split wrong")
	}
}

// TestOrdinalEntryStorage: answers over a compacted document are stored
// as ordinal bitsets (not node slices), and a hit materializes exactly
// the original nodes.
func TestOrdinalEntryStorage(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	if !doc.Compacted() {
		t.Fatal("generated document is not compacted")
	}
	p := xpath.MustParse("//patient")
	want := xpath.EvalDoc(p, doc)
	c.Put("g", xpath.String(p), p, nil, want)

	sh := c.shardFor("g")
	sh.mu.Lock()
	var en *entry
	for _, el := range sh.items {
		en = el.Value.(*entry)
	}
	sh.mu.Unlock()
	if en == nil {
		t.Fatal("entry not stored")
	}
	if en.set == nil || en.nodes != nil {
		t.Fatalf("compacted-document answer stored as slice (set=%v nodes=%d)", en.set != nil, len(en.nodes))
	}
	got, kind := lookupMust(t, c, "g", p, neverProver{})
	if kind != KindEqual {
		t.Fatalf("kind = %v, want equal", kind)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("materialized node %d differs", i)
		}
	}
}

// TestOrdinalEntryStaleAfterRenumber: an ordinal entry is defined by the
// numbering that existed at Put time. Once the document renumbers (tree
// mutation, arena swap), the stored ordinals may denote different nodes,
// so the entry must stop answering — on the exact-key path AND on the
// prover-driven candidate scan. This is defense in depth behind the
// epoch-carrying group key, which test code here deliberately holds
// fixed.
func TestOrdinalEntryStaleAfterRenumber(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	cached := xpath.MustParse("dept | //bill")
	c.Put("g", xpath.String(cached), cached, nil, xpath.EvalDoc(cached, doc))
	if _, kind := lookupMust(t, c, "g", cached, neverProver{}); kind != KindEqual {
		t.Fatal("warm entry does not hit before the mutation")
	}

	// Mutate the tree and renumber: every stored ordinal is now suspect.
	doc.Root.Children[0].AppendChild(xmltree.NewElement("annex"))
	doc.Renumber()

	if _, kind := lookupMust(t, c, "g", cached, neverProver{}); kind != KindMiss {
		t.Fatal("stale ordinal entry served via the exact key")
	}
	// The commuted form would hit via the equivalence prover if the
	// candidate scan ignored freshness.
	commuted := xpath.MustParse("//bill | dept")
	if _, kind := lookupMust(t, c, "g", commuted, prover); kind != KindMiss {
		t.Fatal("stale ordinal entry served via the candidate scan")
	}

	// Re-populating against the new numbering works immediately.
	fresh := xpath.EvalDoc(cached, doc)
	c.Put("g", xpath.String(cached), cached, nil, fresh)
	got, kind := lookupMust(t, c, "g", cached, neverProver{})
	if kind != KindEqual || len(got) != len(fresh) {
		t.Fatalf("re-put entry: kind=%v n=%d want %d", kind, len(got), len(fresh))
	}
}

// TestOrdinalEntryStaleAfterCompact: Compact replaces every node with
// its arena twin; the swap must invalidate ordinal entries just like
// any other renumbering (the old pointers are no longer in the
// document).
func TestOrdinalEntryStaleAfterCompact(t *testing.T) {
	c := New(8)
	doc := hospitalDoc(t)
	p := xpath.MustParse("//patient")
	c.Put("g", xpath.String(p), p, nil, xpath.EvalDoc(p, doc))

	doc.Compact() // arena swap: new node identities, new generation

	if _, kind := lookupMust(t, c, "g", p, neverProver{}); kind != KindMiss {
		t.Fatal("ordinal entry survived an arena swap")
	}
}

// countingProver counts image constructions, the cost the cache keeps
// off its per-candidate path.
type countingProver struct {
	*optimize.Optimizer
	images int
}

func (p *countingProver) Image(q xpath.Path) *optimize.Image {
	p.images++
	return p.Optimizer.Image(q)
}

// missMust looks p up, requires a miss, and returns the plan image the
// Lookup hands to Put.
func missMust(t *testing.T, c *Cache, p xpath.Path, prover Prover) *optimize.Image {
	t.Helper()
	_, kind, img, err := c.Lookup(context.Background(), "g", xpath.String(p), p, prover)
	if err != nil || kind != KindMiss {
		t.Fatalf("Lookup(%s): kind = %v, err = %v, want a miss", xpath.String(p), kind, err)
	}
	return img
}

// TestImagesBuiltOncePerPlan pins the build-once contract: a miss
// returns the plan image it built and Put keeps it on the entry, so a
// miss that compares against a full scan of candidates builds only the
// incoming plan's and its base's images, the Put that follows builds
// none, an exact-key hit builds none, and a re-Put of the same key
// without an image keeps the old entry's.
func TestImagesBuiltOncePerPlan(t *testing.T) {
	c := New(64)
	doc := hospitalDoc(t)
	prover := &countingProver{Optimizer: optimize.New(dtds.Hospital())}
	cached := []string{"//bill", "//medication", "dept", "//staff/nurse",
		"//staff/doctor", "//patient/name", "//wardNo", "//trial"}
	for _, q := range cached {
		p := xpath.MustParse(q)
		img := missMust(t, c, p, prover)
		c.Put("g", xpath.String(p), p, img, xpath.EvalDoc(p, doc))
	}
	// The first miss had no candidate, so it built nothing and its entry
	// built its own image when the second miss compared against it.
	if n := prover.images; n != len(cached) {
		t.Errorf("populating %d entries built %d images, want one each", len(cached), n)
	}

	// A trailing qualifier, so the scan compares both the plan and its
	// base //patient against every candidate.
	q := xpath.MustParse("(//patient)[.//trial]")
	if _, quals := splitQuals(q); len(quals) != 1 {
		t.Fatalf("%s has %d trailing qualifiers, want 1", xpath.String(q), len(quals))
	}
	prover.images = 0
	img := missMust(t, c, q, prover)
	if prover.images > 2 {
		t.Errorf("a miss scanning %d candidates built %d images, want at most 2", scanLimit, prover.images)
	}
	if img == nil {
		t.Fatalf("a miss that compared candidates returned no image")
	}
	prover.images = 0
	c.Put("g", xpath.String(q), q, img, xpath.EvalDoc(q, doc))
	if prover.images != 0 {
		t.Errorf("the Put after a miss built %d images, want 0", prover.images)
	}
	if _, kind := lookupMust(t, c, "g", q, prover); kind != KindEqual {
		t.Fatalf("kind = %v, want equal", kind)
	}
	if prover.images != 0 {
		t.Errorf("an exact-key hit built %d images, want 0", prover.images)
	}
	// Replacing the entry without an image keeps the one it had.
	c.Put("g", xpath.String(q), q, nil, xpath.EvalDoc(q, doc))

	// Every entry holds its image, the replaced one included: a miss on
	// a plan without trailing qualifiers builds only its own.
	prover.images = 0
	missMust(t, c, xpath.MustParse("//patient[name]"), prover)
	if prover.images != 1 {
		t.Errorf("a miss on a plan without trailing qualifiers built %d images, want 1", prover.images)
	}
}

// TestConcurrentProofs races Lookups and Puts over one group under
// -race: candidate images are set once per entry (some lazily, since
// half the entries are Put without a prior Lookup, the rest from their
// miss), while every answer stays the evaluator's.
func TestConcurrentProofs(t *testing.T) {
	c := New(32)
	doc := hospitalDoc(t)
	prover := optimize.New(dtds.Hospital())
	queries := []string{"//patient", "//patient[.//trial]", "dept | //bill", "//bill | dept",
		"//medication", "//patient[name]", "//staff/nurse", "//trial"}
	plans := make([]xpath.Path, len(queries))
	want := make([][]*xmltree.Node, len(queries))
	for i, q := range queries {
		plans[i] = xpath.MustParse(q)
		want[i] = xpath.EvalDoc(plans[i], doc)
		if i%2 == 0 {
			c.Put("g", xpath.String(plans[i]), plans[i], nil, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(plans)
				got, kind, img, err := c.Lookup(context.Background(), "g", xpath.String(plans[i]), plans[i], prover)
				if err != nil {
					t.Error(err)
					return
				}
				if kind == KindMiss {
					c.Put("g", xpath.String(plans[i]), plans[i], img, want[i])
					continue
				}
				if len(got) != len(want[i]) {
					t.Errorf("%s (%v): %d nodes, want %d", queries[i], kind, len(got), len(want[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}
