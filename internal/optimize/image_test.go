package optimize

import (
	"fmt"
	"testing"

	"repro/internal/dtd"
	"repro/internal/xpath"
)

// layeredDTD has the given number of layers of width types each; every
// layer-i type is a concatenation of all layer-(i+1) types.
func layeredDTD(layers, width int) *dtd.DTD {
	d := dtd.New("L0x0")
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("L%dx%d", l, w)
			if l == layers-1 {
				d.SetProduction(name, dtd.TextContent())
				continue
			}
			names := make([]string, width)
			for c := 0; c < width; c++ {
				names[c] = fmt.Sprintf("L%dx%d", l+1, c)
			}
			d.SetProduction(name, dtd.SeqContent(names...))
		}
	}
	return d
}

// labelUnion is a qualifier-free union of n distinct four-step label
// paths over layeredDTD(5, 4).
func labelUnion(n int) xpath.Path {
	var p xpath.Path = xpath.Empty{}
	for i := 0; i < n; i++ {
		p = xpath.MakeUnion(p, xpath.MustParse(fmt.Sprintf("L1x%d/L2x%d/L3x%d/L4x%d", i%4, i/4%4, i/16%4, i/64%4)))
	}
	return p
}

// TestImageBuildAllocsFlat pins the flat image store: once the scratch
// store has grown, a build allocates only its retained copy, so an image
// with 10× the nodes may cost at most 2× the allocations.
func TestImageBuildAllocsFlat(t *testing.T) {
	o := New(layeredDTD(5, 4))
	small, large := labelUnion(12), labelUnion(120)
	var gs, gl *Image
	as := testing.AllocsPerRun(20, func() { gs = o.Image(small) })
	al := testing.AllocsPerRun(20, func() { gl = o.Image(large) })
	if gl.Nodes() < 10*gs.Nodes() {
		t.Fatalf("image sizes %d and %d are not 10× apart", gs.Nodes(), gl.Nodes())
	}
	if al > 2*as {
		t.Fatalf("a %d-node image costs %.0f allocations, a %d-node one %.0f: builds allocate per node",
			gl.Nodes(), al, gs.Nodes(), as)
	}
	// The union cells' tests build in the scratch store and truncate it:
	// after warm-up they allocate nothing at all.
	o.memo.Begin(t.Context())
	i := o.memo.Intern(large)
	if a := testing.AllocsPerRun(20, func() {
		m := o.scratch.mark()
		if g, ok := o.imageAt(i, "L0x0"); !ok || g.empty() {
			t.Fatal("image of a live union is empty")
		}
		o.scratch.truncate(m)
	}); a != 0 {
		t.Errorf("a scratch build allocates %.0f times", a)
	}
	if len(o.scratch.nodes) != 0 {
		t.Errorf("scratch store holds %d nodes after its builds", len(o.scratch.nodes))
	}
}

// TestImageRetainedCopy: a retained image is an exact-size copy of the
// live part of the build — no dead branch, no unused edge capacity —
// and verdicts over it match the scratch graph's.
func TestImageRetainedCopy(t *testing.T) {
	o := New(fig9())
	p := xpath.MustParse(".[b]/(b | c)/d/(e | f)/g | b/nosuch | //g")
	g, ok := o.image(p, "a")
	if !ok || g.empty() {
		t.Fatal("image of a live query is empty")
	}
	s := g.s
	if len(s.marks) != 0 || cap(s.kids) != len(s.kids) || cap(s.nodes) != len(s.nodes) {
		t.Fatalf("retained store is not exact-size: %d/%d nodes, %d/%d kids, %d marks",
			len(s.nodes), cap(s.nodes), len(s.kids), cap(s.kids), len(s.marks))
	}
	edges := 0
	for _, n := range s.nodes {
		if n.kids.n != n.kids.cap {
			t.Errorf("node %s keeps spare edge room", n.label)
		}
		edges += int(n.kids.n)
	}
	if edges != len(s.kids) {
		t.Errorf("%d edges in runs, %d in the arena", edges, len(s.kids))
	}
	o.memo.Begin(t.Context())
	m := o.scratch.mark()
	sg, _ := o.imageAt(o.memo.Intern(p), "a")
	if !o.simulate(g, sg) || !o.simulate(sg, g) {
		t.Errorf("retained copy and scratch graph do not simulate each other")
	}
	o.scratch.truncate(m)
}

// TestImageRulesNotCounted: image construction decides qualifiers
// without counting them; only the optimization's own decisions reach
// the rule counters.
func TestImageRulesNotCounted(t *testing.T) {
	for _, tc := range []struct {
		q, want       string
		rules, pruned uint64
	}{
		{"a[b] | a[c]/b", "a | a/b", 2, 2}, // [b], [c] guaranteed; the union stays
		{"a[b]", "a", 1, 1},
	} {
		o := New(fig8a())
		if got := xpath.String(o.Optimize(xpath.MustParse(tc.q))); got != tc.want {
			t.Errorf("Optimize(%s) = %s, want %s", tc.q, got, tc.want)
		}
		if r, p := o.Stats(); r != tc.rules || p != tc.pruned {
			t.Errorf("Optimize(%s): rules=%d pruned=%d, want %d, %d", tc.q, r, p, tc.rules, tc.pruned)
		}
	}
}
