// Package anscache is the serving layer's semantic answer cache: a
// bounded, sharded cache from (engine epoch, document, optimized plan)
// to the plan's result node-set. It repurposes the Section 5 containment
// machinery (image graphs compared by simulation, Prop. 5.1) as a
// cache-admission proof, in the spirit of view-based query
// answering: a cached answer is served only when the incoming plan is
// provably the same query (equal hit) or provably a qualifier-filtered
// restriction of it (containment hit). The test is sound and one-sided,
// so a hit can never change a query's answer; an unprovable pair is
// simply a miss and evaluates normally.
//
// Two hit kinds:
//
//   - Equal hit: the incoming plan's text matches a cached entry, or a
//     bounded scan of same-group entries finds one the prover shows
//     mutually contained. The cached node-set is the answer.
//   - Containment hit: the incoming plan is base[q1]...[qk] — a chain of
//     trailing qualifiers over a base the prover shows equivalent to a
//     cached plan. Every node of the cached answer is exactly the base's
//     answer, so filtering it by the qualifiers (one evaluation of
//     .[q1]...[qk] at the cached nodes) yields the incoming plan's answer
//     without touching the rest of the document.
//
// Proofs compare prebuilt image graphs. Each entry keeps the image of
// its plan: a missed Lookup returns the plan's image if it built one,
// and the caller hands it to the Put that caches the answer. A Lookup
// builds the incoming plan's image and its base's at most once each,
// and only when the exact key and syntactic equality have not already
// decided a candidate. Building an image takes the optimizer's lock;
// comparing two does not.
//
// Staleness is handled by construction, not by invalidation protocol:
// the group key embeds the owning engine's epoch and the document's
// identity, so an epoch bump (document or policy swap) makes every old
// entry unreachable; Purge then reclaims the memory in one sweep.
package anscache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/nodeset"
	"repro/internal/optimize"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Prover is the containment oracle: Image builds a plan's image once,
// and ContainsImage must be sound (true only when every node the first
// image's plan selects, the second's also selects, on every instance
// of the DTD). optimize.Optimizer satisfies it.
type Prover interface {
	Image(p xpath.Path) *optimize.Image
	ContainsImage(g1, g2 *optimize.Image) bool
}

// Kind classifies a Lookup outcome.
type Kind int

const (
	// KindMiss: no provably-safe entry; the caller must evaluate.
	KindMiss Kind = iota
	// KindEqual: a cached entry is provably the same query.
	KindEqual
	// KindContainment: a cached entry is provably the incoming plan minus
	// its trailing qualifiers; the answer was filtered from it.
	KindContainment
)

// String names the kind for /explainz and logs.
func (k Kind) String() string {
	switch k {
	case KindEqual:
		return "equal"
	case KindContainment:
		return "containment"
	default:
		return "miss"
	}
}

const (
	// defaultShards splits the cache to keep lock contention low; a
	// power of two so the group hash can be masked.
	defaultShards = 8
	// scanLimit bounds the same-group candidates a single Lookup may run
	// the prover against after an exact-key miss. Images are prebuilt,
	// but each comparison is still a graph simulation, so the scan
	// examines only the most recently used candidates.
	scanLimit = 8
	// maxNodes bounds the result size a single entry may pin. Larger
	// answers are not cached: they are cheap to recompute relative to
	// their memory cost, and one huge result must not evict a shard of
	// hot small ones.
	maxNodes = 1 << 14
)

// Cache is the bounded answer cache. All methods are safe for
// concurrent use. Entries within one group (one epoch + document) are
// kept on the same shard, so the candidate scan never crosses shards.
type Cache struct {
	shards []shard
	mask   uint32
	cap    int

	hits            atomic.Uint64
	containmentHits atomic.Uint64
	misses          atomic.Uint64
	evictions       atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	order *list.List // front = most recently used
	cap   int
}

// entry is one cached answer. Answers over compacted documents are
// stored as ordinal bitsets (set/doc/gen) — a 10k-node document's
// answer is ~1.3KB regardless of result size, hits materialize in
// O(words + result) with no per-entry pointer slice to copy, and
// containment filtering iterates ordinals directly. Answers whose
// nodes are not uniformly owned by one compacted document keep the
// pointer-slice form (nodes). Sets here are always unpooled clones:
// entries outlive evaluations, so they must never re-enter the
// evaluator's scratch pool.
//
// img is the plan's image: the one the missed Lookup built and Put was
// given, else the replaced entry's, else built by the first Lookup that
// compares against the entry. Either way it is built once per entry,
// unless two Lookups race to build it; both store equal images.
type entry struct {
	key   string // group + "\x00" + text
	group string
	text  string
	plan  xpath.Path
	img   atomic.Pointer[optimize.Image]
	nodes []*xmltree.Node // slice form; nil when set != nil
	set   *nodeset.Set    // ordinal form over doc's arena
	doc   *xmltree.Document
	gen   uint64 // doc.Generation() at Put time
}

// image returns the entry's plan image, building and keeping it on
// first use.
func (en *entry) image(prover Prover) *optimize.Image {
	if g := en.img.Load(); g != nil {
		return g
	}
	g := prover.Image(en.plan)
	en.img.Store(g)
	return g
}

// fresh reports whether an ordinal entry's bitset still describes the
// document: a Renumber since Put (arena swap, mutation) may reassign
// ordinals, making the set meaningless. Slice entries are always
// fresh — their pointers stay valid, and the group key's epoch handles
// logical staleness. This is defense in depth behind the epoch: an
// epoch bump already abandons the group.
func (en *entry) fresh() bool {
	return en.set == nil || en.doc.Generation() == en.gen
}

// answer materializes the cached node-set as a fresh slice the caller
// owns. Callers must check fresh() first.
func (en *entry) answer() []*xmltree.Node {
	if en.set == nil {
		return copyNodes(en.nodes)
	}
	k := en.set.Count()
	if k == 0 {
		return nil
	}
	byOrd := en.doc.Nodes()
	out := make([]*xmltree.Node, 0, k)
	en.set.ForEach(func(ord int) { out = append(out, byOrd[ord]) })
	return out
}

// New returns a cache holding at most capacity entries. A non-positive
// capacity is treated as 1 so the cache is never unbounded by accident.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := defaultShards
	if capacity < 2*n {
		n = 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), cap: capacity}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
		c.shards[i].cap = per
	}
	return c
}

// Capacity returns the configured entry bound.
func (c *Cache) Capacity() int { return c.cap }

func (c *Cache) shardFor(group string) *shard {
	return &c.shards[fnv32(group)&c.mask]
}

// Lookup tries to answer plan from the cache. group must embed every
// bit of context the answer depends on beyond the plan itself — the
// owning engine's epoch and the document identity. text is the printed
// plan (the exact-match key). On a hit the returned slice is a fresh
// copy the caller owns. On a miss the returned image is the plan's, or
// nil when the scan never needed it; pass it to the Put that caches the
// evaluated answer. An error is only returned when qualifier
// re-evaluation on a containment hit fails (context cancellation); the
// entry is then left untouched and the caller should abort, not fall
// back to evaluation.
func (c *Cache) Lookup(ctx context.Context, group, text string, plan xpath.Path, prover Prover) ([]*xmltree.Node, Kind, *optimize.Image, error) {
	s := c.shardFor(group)
	key := group + "\x00" + text

	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		if en := el.Value.(*entry); en.fresh() {
			s.order.MoveToFront(el)
			nodes := en.answer()
			s.mu.Unlock()
			c.hits.Add(1)
			return nodes, KindEqual, nil, nil
		}
		// A stale ordinal entry (document renumbered since Put) must not
		// be served; fall through to the miss path.
	}
	// Exact key missed; snapshot the most recently used same-group
	// candidates so the containment proofs run without the lock held.
	// Entries are immutable once inserted (their image only ever goes
	// from nil to the plan's, atomically), so the refs stay valid.
	var cands []*entry
	for el := s.order.Front(); el != nil && len(cands) < scanLimit; el = el.Next() {
		if en := el.Value.(*entry); en.group == group && en.fresh() {
			cands = append(cands, en)
		}
	}
	s.mu.Unlock()

	base, quals := splitQuals(plan)
	var img, baseImg *optimize.Image
	for _, cand := range cands {
		if xpath.Equal(plan, cand.plan) {
			c.hits.Add(1)
			return cand.answer(), KindEqual, nil, nil
		}
		if img == nil {
			img = prover.Image(plan)
		}
		candImg := cand.image(prover)
		if equivalent(prover, img, candImg) {
			c.hits.Add(1)
			return cand.answer(), KindEqual, nil, nil
		}
		if len(quals) == 0 {
			continue
		}
		if !xpath.Equal(base, cand.plan) {
			if baseImg == nil {
				baseImg = prover.Image(base)
			}
			if !equivalent(prover, baseImg, candImg) {
				continue
			}
		}
		// cand's answer is exactly base's answer; the incoming plan keeps
		// the nodes satisfying every trailing qualifier, selected by one
		// evaluation of .[q1]...[qk] at the cached nodes. A no-survivor
		// filter returns nil, matching what the evaluator reports for an
		// empty result.
		var out []*xmltree.Node
		if nodes := cand.answer(); len(nodes) > 0 {
			filter := xpath.Path(xpath.Self{})
			for _, q := range quals {
				filter = xpath.Qualified{Sub: filter, Cond: q}
			}
			var err error
			if out, err = xpath.EvalAtCtx(ctx, filter, nodes); err != nil {
				return nil, KindMiss, nil, err
			}
			if len(out) == 0 {
				out = nil
			}
		}
		c.containmentHits.Add(1)
		return out, KindContainment, nil, nil
	}
	c.misses.Add(1)
	return nil, KindMiss, img, nil
}

// equivalent is mutual containment of two prebuilt images.
func equivalent(prover Prover, g1, g2 *optimize.Image) bool {
	return prover.ContainsImage(g1, g2) && prover.ContainsImage(g2, g1)
}

// Put caches an evaluated answer. img is the plan's image as returned
// by the Lookup that missed, or nil; with nil, the entry keeps the image
// of the entry it replaces, if any, and otherwise builds one when a
// Lookup first compares against it. Oversized results are dropped (see
// maxNodes). Answers over one compacted document are stored as an
// ordinal bitset stamped with the document's generation; anything else
// copies the nodes slice. Either way the entry shares the document's
// nodes, which the group key pins logically (an epoch bump abandons
// the group) — callers purge on epoch bumps to reclaim the memory too.
func (c *Cache) Put(group, text string, plan xpath.Path, img *optimize.Image, nodes []*xmltree.Node) {
	if len(nodes) > maxNodes {
		return
	}
	s := c.shardFor(group)
	key := group + "\x00" + text
	en := &entry{key: key, group: group, text: text, plan: plan}
	if d := ordinalOwner(nodes); d != nil {
		set := nodeset.New(d.Size())
		for _, n := range nodes {
			set.Add(n.Ord())
		}
		en.set, en.doc, en.gen = set, d, d.Generation()
	} else {
		en.nodes = copyNodes(nodes)
	}
	en.img.Store(img)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		// Replace wholesale: entries are immutable, so concurrent Lookups
		// holding the old entry keep a consistent snapshot. Same key,
		// same plan text, so the old entry's image is this plan's too.
		if img == nil {
			en.img.Store(el.Value.(*entry).img.Load())
		}
		el.Value = en
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.order.PushFront(en)
	var evicted int
	for s.order.Len() > s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.items, back.Value.(*entry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(uint64(evicted))
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry. Counters are preserved. Called on epoch
// bumps, where every entry just became unreachable by key.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[string]*list.Element)
		s.order.Init()
		s.mu.Unlock()
	}
}

// Stats is a point-in-time snapshot of the cache counters. The JSON
// field names are part of the /statsz wire format.
type Stats struct {
	Hits            uint64 `json:"hits"`
	ContainmentHits uint64 `json:"containment_hits"`
	Misses          uint64 `json:"misses"`
	Evictions       uint64 `json:"evictions"`
	Entries         int    `json:"entries"`
	Capacity        int    `json:"capacity"`
}

// Add accumulates o into s — the rollup used when one figure must
// cover several caches (policy.ClassStats sums its bindings' caches so
// /statsz can split answer-cache outcomes per class). Entries and
// Capacity add too: the sum is the class's total cached answers and
// total room.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.ContainmentHits += o.ContainmentHits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Capacity += o.Capacity
}

// Stats snapshots the counters and current size.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		ContainmentHits: c.containmentHits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		Entries:         c.Len(),
		Capacity:        c.cap,
	}
}

// splitQuals peels the qualifiers a plan applies at its final nodes:
// the conditions of top-level Qualified wrappers, and — recursively —
// of a Qualified in a Seq's last step, since Seq{L, Qualified{s, q}}
// selects exactly the nodes of Seq{L, s} satisfying q. A view query
// q[qual] rewrites to its base's plan with the rewritten qualifier on
// the last step, so this is what makes containment hits fire on real
// plans. Plans whose final step carries no qualifier return (plan,
// nil).
func splitQuals(p xpath.Path) (xpath.Path, []xpath.Qual) {
	switch p := p.(type) {
	case xpath.Qualified:
		base, quals := splitQuals(p.Sub)
		return base, append(quals, p.Cond)
	case xpath.Seq:
		base, quals := splitQuals(p.Right)
		if len(quals) == 0 {
			return p, nil
		}
		return xpath.Seq{Left: p.Left, Right: base}, quals
	}
	return p, nil
}

// ordinalOwner returns the compacted document owning every node, or
// nil when the answer cannot take the ordinal form (empty, detached or
// stale nodes, uncompacted or mixed documents).
func ordinalOwner(nodes []*xmltree.Node) *xmltree.Document {
	if len(nodes) == 0 {
		return nil
	}
	d := nodes[0].Owner()
	if d == nil || !d.Compacted() {
		return nil
	}
	for _, n := range nodes[1:] {
		if n.Owner() != d {
			return nil
		}
	}
	return d
}

// copyNodes snapshots a result slice so cache-internal storage and
// caller-returned slices never alias. Empty results stay nil, matching
// what the evaluator reports.
func copyNodes(nodes []*xmltree.Node) []*xmltree.Node {
	if len(nodes) == 0 {
		return nil
	}
	return append([]*xmltree.Node(nil), nodes...)
}

// fnv32 is the FNV-1a hash, inlined to avoid a hash.Hash allocation on
// every cache operation.
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}
