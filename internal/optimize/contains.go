package optimize

import "repro/internal/xpath"

// Image is the Section 5.1 image graph of one query at the DTD root,
// built once and immutable afterwards. Containment tests over prebuilt
// images (ContainsImage) run the Proposition 5.1 simulation without the
// optimizer's lock, so a caller that compares one query against many
// others — the answer cache scanning its candidates — builds each image
// once instead of once per pair.
type Image struct {
	g *igraph // nil: the query provably selects nothing
	// ok is false when construction overflowed the budget or met a
	// construct the abstraction cannot model (Rec automata); such an
	// image is never proved contained in anything.
	ok bool
}

// Image builds the image graph of p evaluated at root elements of the
// DTD. Construction reads the optimizer's shared caches, so it runs
// under the lock; the result is immutable and safe to share.
func (o *Optimizer) Image(p xpath.Path) *Image {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, ok := o.image(p, o.d.Root())
	return &Image{g: g, ok: ok}
}

// ContainsImage reports that the query of g1 is provably contained in
// the query of g2 over every instance of the DTD: every node the first
// selects at root context, the second also selects. Like every test in
// this package it is sound and approximate: true is a guarantee, false
// means "could not prove it" — callers must fall back to evaluation,
// never invert the answer. Both images must come from this optimizer.
// The simulation only reads the images and the DTD, so it takes no
// lock.
func (o *Optimizer) ContainsImage(g1, g2 *Image) bool {
	if !g1.ok {
		return false
	}
	if !g2.ok {
		// g1 == nil (p1 provably empty) is contained in anything, even a
		// query the abstraction cannot model.
		return g1.g == nil
	}
	return o.simulate(g1.g, g2.g)
}

// Contains reports that p1 is provably contained in p2 (see
// ContainsImage). Queries whose image graphs overflow the construction
// budget, or that contain constructs the abstraction cannot model (Rec
// automata), are never proved contained.
func (o *Optimizer) Contains(p1, p2 xpath.Path) bool {
	return o.ContainsImage(o.Image(p1), o.Image(p2))
}

// Equivalent reports provable mutual containment: p1 and p2 select
// exactly the same nodes over every instance of the DTD. The same
// one-sidedness caveats as Contains apply.
func (o *Optimizer) Equivalent(p1, p2 xpath.Path) bool {
	if xpath.Equal(p1, p2) {
		return true
	}
	g1, g2 := o.Image(p1), o.Image(p2)
	return o.ContainsImage(g1, g2) && o.ContainsImage(g2, g1)
}
