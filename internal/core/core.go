// Package core wires the paper's full framework (Fig. 3) into one
// engine: a security administrator's access specification is compiled
// into a security view (package secview), user queries posed over the
// exposed view DTD are rewritten into equivalent document queries
// (package rewrite), optionally optimized against the document DTD
// (package optimize), and evaluated over the original document (package
// xpath) — the view itself is never materialized on the query path.
//
// On top of the paper's pipeline the engine adds a serving layer:
// rewritten-and-optimized plans are kept in a bounded LRU plan cache, so
// repeated queries skip the rewrite and optimize stages entirely;
// recursive views rewrite height-free by default (one plan per query,
// valid for documents of any height — see package rewrite), with the
// Section 4.2 unfolding path available behind Config.UnfoldRewrite as a
// differential oracle, whose per-height rewriters live in a second
// bounded cache so adversarial height profiles cannot grow memory
// without limit; and descendant queries over large compacted documents
// are answered from a cached per-document label index (Config.Indexed).
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/anscache"
	"repro/internal/dtd"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/plancache"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Default capacities for the engine's caches. Plans are small (an AST
// per entry); per-height rewriters embed an unfolded DTD and are
// bigger, so their cache is tighter; label indexes hold a posting-list
// entry per document node, so the index cache is tightest — sized for
// the handful of live documents a server actually queries.
const (
	DefaultPlanCacheCapacity   = 512
	DefaultHeightCacheCapacity = 64
	DefaultIndexCacheCapacity  = 16
	// DefaultAnswerCacheCapacity bounds the semantic answer cache
	// (Config.AnswerCache): each entry pins a result node-set, so it sits
	// between the plan cache (tiny entries) and the index cache (huge
	// ones).
	DefaultAnswerCacheCapacity = 256
)

// DefaultIndexThreshold is the document size (nodes) below which an
// indexed-configured engine keeps walking: building and caching a label
// index for a small tree costs more than the walk it replaces.
const DefaultIndexThreshold = 512

// ErrUnboundVars marks queries rejected at plan time because they still
// contain unbound $variables — the caller's fault (a missing parameter
// binding), which servers report as a client error rather than an
// internal failure. Test with errors.Is.
var ErrUnboundVars = errors.New("query has unbound variables")

// Config tunes an engine's serving layer. The zero value gives the
// defaults: bounded caches, sequential evaluation.
type Config struct {
	// PlanCacheCapacity bounds the (query, height class) → Prepared
	// cache. 0 means DefaultPlanCacheCapacity.
	PlanCacheCapacity int
	// HeightCacheCapacity bounds the per-height rewriter cache used by
	// recursive views. 0 means DefaultHeightCacheCapacity.
	HeightCacheCapacity int
	// Indexed turns on indexed evaluation: the engine builds and caches
	// a per-document label index (xpath.Index) and answers queries with
	// descendant steps over compacted documents of at least
	// IndexThreshold nodes from posting lists instead of subtree walks.
	// Per query the engine picks indexed when applicable (see
	// indexApplicable), else sequential evaluation.
	Indexed bool
	// IndexThreshold is the minimum document size (nodes) for indexed
	// evaluation. 0 means DefaultIndexThreshold; negative forces the
	// index on for tests.
	IndexThreshold int
	// IndexCacheCapacity bounds the per-document index cache. 0 means
	// DefaultIndexCacheCapacity.
	IndexCacheCapacity int
	// AnswerCache turns on the semantic answer cache: evaluated result
	// node-sets are cached per (engine epoch, document, optimized plan)
	// and an incoming query is answered from a cached entry the
	// optimizer's containment test proves equal to it or a
	// qualifier-filtered restriction of it (see internal/anscache). Off
	// by default: the cache trades memory (pinned node-sets) and
	// per-miss containment proofs for skipped evaluations, which pays on
	// repeated-query workloads.
	AnswerCache bool
	// AnswerCacheCapacity bounds the answer cache. 0 means
	// DefaultAnswerCacheCapacity.
	AnswerCacheCapacity int
	// UnfoldRewrite selects the Section 4.2 unfolding path for recursive
	// views instead of the default height-free rewriting: plans are then
	// built per document height class and cached per (query, height).
	// Kept as the differential oracle for the height-free path; flat
	// (non-recursive) views ignore it.
	UnfoldRewrite bool
}

func (c Config) planCap() int {
	if c.PlanCacheCapacity > 0 {
		return c.PlanCacheCapacity
	}
	return DefaultPlanCacheCapacity
}

func (c Config) heightCap() int {
	if c.HeightCacheCapacity > 0 {
		return c.HeightCacheCapacity
	}
	return DefaultHeightCacheCapacity
}

func (c Config) indexCap() int {
	if c.IndexCacheCapacity > 0 {
		return c.IndexCacheCapacity
	}
	return DefaultIndexCacheCapacity
}

func (c Config) answerCap() int {
	if c.AnswerCacheCapacity > 0 {
		return c.AnswerCacheCapacity
	}
	return DefaultAnswerCacheCapacity
}

func (c Config) indexThreshold() int {
	switch {
	case c.IndexThreshold > 0:
		return c.IndexThreshold
	case c.IndexThreshold < 0:
		return 1
	}
	return DefaultIndexThreshold
}

// Engine enforces one access policy: it owns the derived security view
// and the per-view rewriting and optimization state. An Engine is cheap
// to keep around and reuse across documents and queries; build one per
// (policy, parameter binding) pair. All methods are safe for concurrent
// use.
type Engine struct {
	spec *access.Spec
	view *secview.View
	opt  *optimize.Optimizer
	cfg  Config

	// flat is the height-independent rewriter: every non-recursive view
	// has one, and recursive views get a height-free one unless
	// Config.UnfoldRewrite asked for the Section 4.2 oracle path. When
	// nil (unfold mode), per-height rewriters are built on demand and
	// kept in the bounded byHeight cache.
	flat     *rewrite.Rewriter
	byHeight *plancache.Cache[*rewrite.Rewriter]

	// plans caches rewritten-and-optimized queries by (query text,
	// height class) so repeated queries skip rewrite+optimize.
	plans *plancache.Cache[*Prepared]

	// indexes caches per-document label indexes, keyed by (epoch,
	// document pointer identity). A cached Index holds its document
	// alive, so a live entry can never alias a different document at the
	// same address; indexFor verifies anyway and rebuilds on mismatch.
	indexes *plancache.Cache[*xpath.Index]

	// answers is the semantic answer cache (Config.AnswerCache), nil
	// when disabled. Keys embed epoch, so BumpEpoch strands — and then
	// purges — every entry.
	answers *anscache.Cache

	// epoch counts document/policy rebinds the engine has been told
	// about (BumpEpoch). It prefixes every answer-cache and index-cache
	// key, so artifacts derived before a swap are unreachable by
	// construction afterward.
	epoch atomic.Uint64

	queries         atomic.Uint64
	cancelled       atomic.Uint64
	sequentialEvals atomic.Uint64
	indexedEvals    atomic.Uint64
	ordinalEvals    atomic.Uint64
}

// New derives the security view for a bound access specification (no
// free $parameters) and prepares the engine with the default Config.
func New(spec *access.Spec) (*Engine, error) {
	return NewWithConfig(spec, Config{})
}

// NewWithConfig is New with explicit serving-layer tuning.
func NewWithConfig(spec *access.Spec, cfg Config) (*Engine, error) {
	if vars := spec.Vars(); len(vars) > 0 {
		return nil, fmt.Errorf("core: specification has unbound parameters %v; call Spec.Bind first", vars)
	}
	view, err := secview.Derive(spec)
	if err != nil {
		return nil, err
	}
	return FromViewConfig(view, cfg)
}

// FromView builds an engine around an already-derived view — typically
// one loaded from a serialized definition (secview.UnmarshalView), so
// query frontends need not re-derive per process.
func FromView(view *secview.View) (*Engine, error) {
	return FromViewConfig(view, Config{})
}

// FromViewConfig is FromView with explicit serving-layer tuning.
func FromViewConfig(view *secview.View, cfg Config) (*Engine, error) {
	e := &Engine{
		spec:     view.Spec,
		view:     view,
		opt:      optimize.New(view.Doc),
		cfg:      cfg,
		byHeight: plancache.New[*rewrite.Rewriter](cfg.heightCap()),
		plans:    plancache.New[*Prepared](cfg.planCap()),
		indexes:  plancache.New[*xpath.Index](cfg.indexCap()),
	}
	if cfg.AnswerCache {
		e.answers = anscache.New(cfg.answerCap())
	}
	if !view.IsRecursive() || !cfg.UnfoldRewrite {
		r, err := rewrite.ForView(view)
		if err != nil {
			return nil, err
		}
		e.flat = r
	}
	return e, nil
}

// View returns the derived security view (view DTD plus σ).
func (e *Engine) View() *secview.View { return e.view }

// ViewDTD returns the view DTD D_v — the only schema information exposed
// to users authorized by the policy.
func (e *Engine) ViewDTD() *dtd.DTD { return e.view.DTD }

// DocumentDTD returns the original document DTD D (administrator-side).
func (e *Engine) DocumentDTD() *dtd.DTD { return e.spec.D }

// Spec returns the bound access specification.
func (e *Engine) Spec() *access.Spec { return e.spec }

// Epoch returns the engine's current document/policy epoch. The epoch
// is part of every answer-cache and index-cache key, so cached answers
// and indexes from before a BumpEpoch can never be served after it.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// BumpEpoch advances the epoch, called when a document the engine has
// served (or the policy binding behind it) is swapped out from under
// it. Every cached answer and per-document index becomes unreachable by
// key immediately — staleness by construction — and both caches are
// purged to reclaim the memory; plans survive, because a plan depends
// only on the policy and query text, never on a document.
func (e *Engine) BumpEpoch() {
	e.epoch.Add(1)
	if e.answers != nil {
		e.answers.Purge()
	}
	e.indexes.Purge()
}

// RewriteMode names the engine's rewriting strategy: "flat" for a
// non-recursive view, "height-free" for a recursive view rewritten via
// Rec automata (the default), and "unfold" for the Section 4.2 oracle
// path (Config.UnfoldRewrite). Surfaced in /explainz and /metricsz.
func (e *Engine) RewriteMode() string {
	if e.flat != nil {
		return e.flat.Mode()
	}
	return "unfold"
}

// Rewriter returns the query rewriter for documents of the given height.
// The height is ignored except in unfold-oracle mode (Config.UnfoldRewrite
// on a recursive view), where the view is unfolded to it per Section 4.2;
// those per-height rewriters are cached with LRU eviction, so an
// adversarial stream of documents with many distinct heights costs
// repeated unfolds, never unbounded memory.
func (e *Engine) Rewriter(height int) (*rewrite.Rewriter, error) {
	if e.flat != nil {
		return e.flat, nil
	}
	return e.byHeight.GetOrCompute(strconv.Itoa(height), func() (*rewrite.Rewriter, error) {
		return rewrite.ForViewWithHeight(e.view, height)
	})
}

// Rewrite translates a view query into the equivalent document query p_t.
// Recursive views need the height of the document the query will run on.
func (e *Engine) Rewrite(p xpath.Path, height int) (xpath.Path, error) {
	return e.RewriteCtx(context.Background(), p, height)
}

// RewriteCtx is Rewrite with observability: a context carrying a trace
// span gets a "rewrite" child span (see rewrite.RewriteCtx).
func (e *Engine) RewriteCtx(ctx context.Context, p xpath.Path, height int) (xpath.Path, error) {
	r, err := e.Rewriter(height)
	if err != nil {
		return nil, err
	}
	return r.RewriteCtx(ctx, p)
}

// Optimize improves a document query using the document DTD's structural
// constraints (Section 5). It is equivalence-preserving and never errors:
// constructs outside the optimizer's reasoning pass through unchanged.
func (e *Engine) Optimize(p xpath.Path) xpath.Path {
	return e.opt.Optimize(p)
}

// heightClass maps a document height to the plan-cache key component.
// With a height-independent rewriter (flat views, and recursive views in
// the default height-free mode) every document shares one class — one
// cache entry per query text; only the unfold oracle needs one plan per
// height.
func (e *Engine) heightClass(height int) int {
	if e.flat != nil {
		return 0
	}
	return height
}

// prepared returns the cached plan for (query, height class), building
// and caching it on a miss. Queries with unbound $variables are
// rejected up front: depending on the document they would either error
// mid-evaluation or silently match nothing, and neither belongs in the
// cache. A context carrying a QueryMetrics carrier gets the cache
// outcome and, on a miss, the per-phase durations and plan shape; a
// context carrying a span gets "rewrite"/"optimize" child spans.
// Concurrent misses on one key may build the plan more than once and
// the last Put wins (GetOrCompute singleflights, but this path wants
// per-request metrics attribution, and a duplicate plan build is
// harmless).
func (e *Engine) prepared(ctx context.Context, p xpath.Path, height int) (*Prepared, error) {
	if vars := xpath.Vars(p); len(vars) > 0 {
		return nil, fmt.Errorf("core: %w %v; bind them with xpath.BindVars before querying", ErrUnboundVars, vars)
	}
	text := xpath.String(p)
	key := strconv.Itoa(e.heightClass(height)) + "\x00" + text
	qm := obs.QueryMetricsFromContext(ctx)
	if prep, ok := e.plans.Get(key); ok {
		if qm != nil {
			qm.PlanCacheHit = true
			if qm.CaptureQueries {
				qm.Rewritten = xpath.String(prep.Rewritten)
				qm.Optimized = xpath.String(prep.Optimized)
			}
		}
		obs.SpanFromContext(ctx).SetAttr("plan_cache", "hit")
		return prep, nil
	}
	obs.SpanFromContext(ctx).SetAttr("plan_cache", "miss")
	start := time.Now()
	pt, err := e.RewriteCtx(ctx, p, height)
	if err != nil {
		return nil, err
	}
	rewriteDone := time.Now()
	po := e.opt.OptimizeCtx(ctx, pt)
	if qm != nil {
		qm.Rewrite = rewriteDone.Sub(start)
		qm.Optimize = time.Since(rewriteDone)
		qm.RewrittenSize = xpath.Size(pt)
		qm.OptimizedSize = xpath.Size(po)
		if e.flat == nil {
			qm.UnfoldHeight = height
		}
		if qm.CaptureQueries {
			qm.Rewritten = xpath.String(pt)
			qm.Optimized = xpath.String(po)
		}
	}
	prep := &Prepared{Source: p, Rewritten: pt, Optimized: po, optimizedText: xpath.String(po)}
	e.plans.Put(key, prep)
	return prep, nil
}

// Query answers a view query over a document: rewrite, optimize, and
// evaluate over the original tree. The result contains exactly the
// document nodes the policy exposes to the query. Plans are served from
// the engine's cache when the same query text was answered before (for
// recursive views: at the same document height), and malformed or
// unbound-variable queries return an error rather than panicking.
func (e *Engine) Query(doc *xmltree.Document, p xpath.Path) ([]*xmltree.Node, error) {
	return e.QueryCtx(context.Background(), doc, p)
}

// QueryCtx is Query honoring a context: evaluation polls the context
// cooperatively and returns ctx.Err() once it is done, so callers can
// bound a query with a deadline or cancel it mid-flight. Plan rewriting
// and caching complete normally either way — a cancelled query leaves
// the plan cache exactly as a successful one would, so a retry hits the
// cached plan.
//
// With Config.AnswerCache on, the prepared plan is first offered to the
// semantic answer cache: a provably-equal cached plan answers directly,
// a provable base-of-trailing-qualifiers match answers by filtering the
// cached node-set, and only a miss runs the evaluator (whose successful
// result is then cached). Hits report eval mode "cached".
func (e *Engine) QueryCtx(ctx context.Context, doc *xmltree.Document, p xpath.Path) ([]*xmltree.Node, error) {
	e.queries.Add(1)
	prep, err := e.prepared(ctx, p, doc.Height())
	if err != nil {
		return nil, err
	}
	qm := obs.QueryMetricsFromContext(ctx)
	if qm != nil {
		// The rendered optimized plan is the request's fingerprint basis
		// (see internal/qstats); it is precomputed on the Prepared, so
		// surfacing it is a field copy on hits and misses alike.
		qm.PlanText = prep.optText()
	}
	var group, planText string
	var img *optimize.Image // the plan's image from a missed lookup, for Put
	if e.answers != nil {
		group, planText = e.docGroup(doc), prep.optText()
		out, kind, planImg, err := e.answers.Lookup(ctx, group, planText, prep.Optimized, e.opt)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				e.cancelled.Add(1)
			}
			return nil, err
		}
		if qm != nil {
			qm.AnswerCacheHit = kind.String()
		}
		obs.SpanFromContext(ctx).SetAttr("answer_cache", kind.String())
		if kind != anscache.KindMiss {
			if qm != nil {
				qm.EvalMode = obs.ModeCached
				qm.SetRepr = setRepr(doc)
			}
			return out, nil
		}
		img = planImg
	}
	out, err := e.evalPrepared(ctx, prep, doc)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.cancelled.Add(1)
		}
		return out, err
	}
	if e.answers != nil {
		e.answers.Put(group, planText, prep.Optimized, img, out)
	}
	return out, nil
}

// indexApplicable reports whether the engine should answer this
// (plan, document) pair with the index-backed evaluator: indexed mode
// is on, the document is compacted (posting lists are used only on the
// bitset path, so an uncompacted document reports sequential) and big
// enough to repay the index, and the query is descend-class — a
// descendant step in the evaluated plan, or in the source view query.
// Fig. 6 rewriting unfolds view-level // steps into unions of label
// chains, so most serving plans carry no Descend of their own; routing
// descend-sourced plans through the indexed evaluator keeps one
// consistent mode for the class (visible in /explainz and /metricsz)
// and serves any residual // from posting lists with the per-step
// selectivity heuristic. Child-axis-only view queries touch the same
// nodes either way, so the walk serves them without index overhead.
func (e *Engine) indexApplicable(prep *Prepared, doc *xmltree.Document) bool {
	if !e.cfg.Indexed || doc.Size() < e.cfg.indexThreshold() || !xpath.OrdinalApplicable(doc) {
		return false
	}
	return xpath.HasDescend(prep.Optimized) || xpath.HasDescend(prep.Source)
}

// docGroup keys a document for the answer and index caches: the
// engine epoch plus the document's pointer identity. The epoch prefix
// makes every pre-swap entry unreachable after BumpEpoch.
func (e *Engine) docGroup(doc *xmltree.Document) string {
	return strconv.FormatUint(e.epoch.Load(), 10) + "\x00" + fmt.Sprintf("%p", doc)
}

// indexFor returns the cached label index for the document, building
// and caching it on first use. Keys are (epoch, document pointer
// identity); a cached index pins its document, so a live entry cannot
// collide with a recycled address, and the Doc check below is pure
// defense.
func (e *Engine) indexFor(doc *xmltree.Document) *xpath.Index {
	key := e.docGroup(doc)
	idx, _ := e.indexes.GetOrCompute(key, func() (*xpath.Index, error) {
		return xpath.NewIndex(doc), nil
	})
	if idx == nil || idx.Doc() != doc {
		idx = xpath.NewIndex(doc)
		e.indexes.Put(key, idx)
	}
	return idx
}

// evalPrepared runs the evaluation phase, picking the eval mode per
// query: indexed when applicable (see indexApplicable), else
// sequential. Both run the counted evaluator; when the context carries
// a QueryMetrics carrier or a trace span, evalPrepared also reports the
// eval mode taken, the nodes-visited count, and the phase duration, and
// reads the clock only then.
func (e *Engine) evalPrepared(ctx context.Context, prep *Prepared, doc *xmltree.Document) ([]*xmltree.Node, error) {
	qm := obs.QueryMetricsFromContext(ctx)
	_, sp := obs.StartSpan(ctx, "eval")
	var start time.Time
	if qm != nil || sp != nil {
		start = time.Now()
	}
	if xpath.OrdinalApplicable(doc) {
		e.ordinalEvals.Add(1)
	}
	var out []*xmltree.Node
	var ticks uint64
	var err error
	mode := obs.ModeSequential
	if e.indexApplicable(prep, doc) {
		e.indexedEvals.Add(1)
		mode = obs.ModeIndexed
		out, ticks, err = xpath.EvalIndexedCtxCounted(ctx, prep.Optimized, e.indexFor(doc))
	} else {
		e.sequentialEvals.Add(1)
		out, ticks, err = xpath.EvalDocCtxCounted(ctx, prep.Optimized, doc)
	}
	if qm != nil {
		qm.Eval = time.Since(start)
		qm.EvalMode = mode
		qm.SetRepr = setRepr(doc)
		qm.NodesVisited = ticks
	}
	if sp != nil {
		sp.SetAttr("nodes_visited", ticks)
		sp.SetAttr("mode", mode)
		sp.SetAttr("set_repr", setRepr(doc))
		sp.SetAttr("result_count", len(out))
		sp.Finish()
	}
	return out, err
}

// setRepr names the node-set representation evaluation over doc uses —
// the compaction gate, rendered for metrics labels.
func setRepr(doc *xmltree.Document) string {
	if xpath.OrdinalApplicable(doc) {
		return obs.ReprBitset
	}
	return obs.ReprSlice
}

// QueryString is Query with parsing.
func (e *Engine) QueryString(doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	return e.QueryStringCtx(context.Background(), doc, query)
}

// QueryStringCtx is QueryCtx with parsing.
func (e *Engine) QueryStringCtx(ctx context.Context, doc *xmltree.Document, query string) ([]*xmltree.Node, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.QueryCtx(ctx, doc, p)
}

// Explain is the end-to-end report of one freshly measured pipeline
// run: the intermediate query strings and per-phase wall times behind
// /explainz and svquery -explain. Durations are nanoseconds (the
// internal unit everywhere; consumers divide for display).
type Explain struct {
	// Query, Rewritten, and Optimized are the view query and its two
	// intermediate forms, printed.
	Query     string `json:"query"`
	Rewritten string `json:"rewritten"`
	Optimized string `json:"optimized"`
	// RewriteNs, OptimizeNs, and EvalNs are the fresh per-phase wall
	// times. Explain bypasses the plan cache for rewrite and optimize —
	// a cached plan would report hit-and-nothing-to-time — so these are
	// what a cold request pays.
	RewriteNs  int64 `json:"rewrite_ns"`
	OptimizeNs int64 `json:"optimize_ns"`
	EvalNs     int64 `json:"eval_ns"`
	// RewrittenSize and OptimizedSize are AST sizes (xpath.Size).
	RewrittenSize int `json:"rewritten_size"`
	OptimizedSize int `json:"optimized_size"`
	// EvalMode is what the evaluator actually did (obs.ModeSequential
	// or obs.ModeIndexed); NodesVisited is its work counter for this run
	// (see obs.QueryMetrics).
	EvalMode     string `json:"eval_mode"`
	NodesVisited uint64 `json:"nodes_visited,omitempty"`
	ResultCount  int    `json:"result_count"`
	// DocHeight is the document's height; UnfoldHeight is the height a
	// recursive view was unfolded to for this document (0 outside
	// unfold-oracle mode); RecursiveView flags the view DTD as recursive;
	// RewriteMode is the engine's rewriting strategy (Engine.RewriteMode).
	DocHeight     int    `json:"doc_height"`
	UnfoldHeight  int    `json:"unfold_height,omitempty"`
	RecursiveView bool   `json:"recursive_view"`
	RewriteMode   string `json:"rewrite_mode"`
	// PlanWasCached reports whether the serving path would have hit the
	// plan cache for this query (explain re-measures regardless, and
	// re-caches its fresh plan).
	PlanWasCached bool `json:"plan_was_cached"`
	// AnswerCacheHit is the answer-cache outcome the serving path would
	// have seen for this (document, plan): "equal", "containment", or
	// "miss"; empty when Config.AnswerCache is off. Explain still
	// evaluates fresh — the phase timings above are always measured —
	// and caches its fresh answer like a served query would.
	AnswerCacheHit string `json:"answer_cache_hit,omitempty"`
}

// ExplainCtx answers a view query like QueryCtx while measuring every
// phase fresh: rewrite and optimize run even when the plan cache holds
// the query (the cache outcome is still reported), and the built plan
// is cached for subsequent requests. A context carrying a trace span
// gets the usual phase child spans.
func (e *Engine) ExplainCtx(ctx context.Context, doc *xmltree.Document, p xpath.Path) (*Explain, error) {
	if vars := xpath.Vars(p); len(vars) > 0 {
		return nil, fmt.Errorf("core: %w %v; bind them with xpath.BindVars before querying", ErrUnboundVars, vars)
	}
	e.queries.Add(1)
	height := doc.Height()
	ex := &Explain{
		Query:         xpath.String(p),
		DocHeight:     height,
		RecursiveView: e.view.IsRecursive(),
		RewriteMode:   e.RewriteMode(),
	}
	key := strconv.Itoa(e.heightClass(height)) + "\x00" + ex.Query
	_, ex.PlanWasCached = e.plans.Get(key)
	if e.flat == nil {
		ex.UnfoldHeight = height
	}
	start := time.Now()
	pt, err := e.RewriteCtx(ctx, p, height)
	if err != nil {
		return nil, err
	}
	ex.RewriteNs = time.Since(start).Nanoseconds()
	ex.Rewritten = xpath.String(pt)
	ex.RewrittenSize = xpath.Size(pt)
	start = time.Now()
	po := e.opt.OptimizeCtx(ctx, pt)
	ex.OptimizeNs = time.Since(start).Nanoseconds()
	ex.Optimized = xpath.String(po)
	ex.OptimizedSize = xpath.Size(po)
	prep := &Prepared{Source: p, Rewritten: pt, Optimized: po, optimizedText: ex.Optimized}
	e.plans.Put(key, prep)
	var img *optimize.Image
	if e.answers != nil {
		// Probe the answer cache for the report, then evaluate fresh
		// anyway: explain's contract is measured phases.
		if _, kind, planImg, lerr := e.answers.Lookup(ctx, e.docGroup(doc), prep.optText(), prep.Optimized, e.opt); lerr == nil {
			ex.AnswerCacheHit = kind.String()
			img = planImg
		}
	}
	// Evaluate with a private carrier so the mode and work counters for
	// this run are readable even when the caller installed none.
	qm := &obs.QueryMetrics{}
	start = time.Now()
	out, err := e.evalPrepared(obs.WithQueryMetrics(ctx, qm), prep, doc)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.cancelled.Add(1)
		}
		return nil, err
	}
	ex.EvalNs = time.Since(start).Nanoseconds()
	if e.answers != nil {
		e.answers.Put(e.docGroup(doc), prep.optText(), prep.Optimized, img, out)
	}
	ex.EvalMode = qm.EvalMode
	ex.NodesVisited = qm.NodesVisited
	ex.ResultCount = len(out)
	return ex, nil
}

// ExplainStringCtx is ExplainCtx with parsing.
func (e *Engine) ExplainStringCtx(ctx context.Context, doc *xmltree.Document, query string) (*Explain, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.ExplainCtx(ctx, doc, p)
}

// Stats is a point-in-time snapshot of the engine's serving counters.
// The JSON field names are part of the /statsz wire format.
type Stats struct {
	// Queries counts Query/QueryString calls.
	Queries uint64 `json:"queries"`
	// Cancelled counts queries that returned a context error (deadline
	// exceeded or caller cancellation) mid-evaluation.
	Cancelled uint64 `json:"cancelled"`
	// PlanCache reports the (query, height class) → plan cache.
	PlanCache plancache.Stats `json:"plan_cache"`
	// PlanCacheQueries counts the distinct query texts in the plan cache
	// and PlanCacheHeightClasses the distinct height classes; Entries in
	// PlanCache counts (query, height class) pairs. A height-independent
	// rewriter keeps exactly one class, so Queries == Entries; the unfold
	// oracle holds one entry per (query, height), which these two fields
	// stopped conflating.
	PlanCacheQueries       int `json:"plan_cache_queries"`
	PlanCacheHeightClasses int `json:"plan_cache_height_classes"`
	// PlanCacheNodes sums the AST size of every cached optimized plan —
	// the memory-side view of the height-free win: with the unfold
	// oracle it grows with both the number of height classes and the
	// per-plan unfolding depth; height-free it tracks query count only.
	PlanCacheNodes int `json:"plan_cache_nodes"`
	// HeightCache reports the per-height rewriter cache (recursive
	// views only; empty for flat views).
	HeightCache plancache.Stats `json:"height_cache"`
	// IndexCache reports the per-document label index cache (indexed
	// mode only; empty otherwise).
	IndexCache plancache.Stats `json:"index_cache"`
	// AnswerCache reports the semantic answer cache (Config.AnswerCache;
	// zero when off). Hits are equal hits; ContainmentHits count answers
	// assembled by qualifier-filtering a cached superset.
	AnswerCache anscache.Stats `json:"answer_cache"`
	// Epoch is the engine's document/policy epoch (see BumpEpoch).
	Epoch uint64 `json:"epoch"`
	// SequentialEvals and IndexedEvals count evaluations by mode.
	SequentialEvals uint64 `json:"sequential_evals"`
	IndexedEvals    uint64 `json:"indexed_evals"`
	// OrdinalEvals counts evaluations that passed the compaction gate
	// and ran over ordinal bitsets (any mode; see internal/nodeset).
	OrdinalEvals uint64 `json:"ordinal_evals"`
	// OptimizeRules and OptimizePruned count the optimizer's DTD-driven
	// simplification decisions and the subtrees they removed (see
	// optimize.Optimizer.Stats).
	OptimizeRules  uint64 `json:"optimize_rules"`
	OptimizePruned uint64 `json:"optimize_pruned"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	rules, pruned := e.opt.Stats()
	queries, classes, nodes := e.planCacheBreakdown()
	var ans anscache.Stats
	if e.answers != nil {
		ans = e.answers.Stats()
	}
	return Stats{
		AnswerCache:            ans,
		Epoch:                  e.epoch.Load(),
		Queries:                e.queries.Load(),
		Cancelled:              e.cancelled.Load(),
		PlanCache:              e.plans.Stats(),
		PlanCacheQueries:       queries,
		PlanCacheHeightClasses: classes,
		PlanCacheNodes:         nodes,
		HeightCache:            e.byHeight.Stats(),
		IndexCache:             e.indexes.Stats(),
		SequentialEvals:        e.sequentialEvals.Load(),
		IndexedEvals:           e.indexedEvals.Load(),
		OrdinalEvals:           e.ordinalEvals.Load(),
		OptimizeRules:          rules,
		OptimizePruned:         pruned,
	}
}

// planCacheBreakdown walks the plan cache and counts distinct query
// texts, distinct height classes, and total optimized-plan AST nodes
// across its entries. Point-in-time like the rest of Stats: concurrent
// Puts/evictions may be missed.
func (e *Engine) planCacheBreakdown() (queries, classes, nodes int) {
	qs := make(map[string]bool)
	cs := make(map[string]bool)
	e.plans.Each(func(key string, prep *Prepared) {
		class, text, ok := strings.Cut(key, "\x00")
		if !ok {
			return
		}
		qs[text] = true
		cs[class] = true
		nodes += xpath.Size(prep.Optimized)
	})
	return len(qs), len(cs), nodes
}

// Prepared is a view query rewritten and optimized once, reusable across
// documents sharing its height class (every document for non-recursive
// views; same-height documents for recursive ones). Engine.Query keeps
// these in its plan cache; Prepare hands one out directly.
type Prepared struct {
	// Source is the original view query.
	Source xpath.Path
	// Rewritten is rw(p, r) over the document DTD.
	Rewritten xpath.Path
	// Optimized is the DTD-optimized form actually evaluated.
	Optimized xpath.Path

	// optimizedText is xpath.String(Optimized), rendered once at build
	// time: it is the answer cache's exact-match key, needed per query.
	optimizedText string
}

// optText returns the printed optimized plan, tolerating Prepared
// values constructed outside the engine (tests) that skipped the field.
func (q *Prepared) optText() string {
	if q.optimizedText != "" {
		return q.optimizedText
	}
	return xpath.String(q.Optimized)
}

// Prepare rewrites and optimizes a view query once, so frontends can
// amortize translation across many documents and evaluations. It is
// available whenever rewriting is height-independent — always, except
// for a recursive view in unfold-oracle mode (Config.UnfoldRewrite),
// whose plans depend on each document's height; use Engine.Query then.
func (e *Engine) Prepare(p xpath.Path) (*Prepared, error) {
	if e.flat == nil {
		return nil, fmt.Errorf("core: Prepare needs a height-independent rewriter; the unfold oracle (Config.UnfoldRewrite) plans per document height — use Query, or Rewrite with the height")
	}
	return e.prepared(context.Background(), p, 0)
}

// PrepareString parses and prepares in one step.
func (e *Engine) PrepareString(query string) (*Prepared, error) {
	p, err := xpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Prepare(p)
}

// Eval runs a prepared query over a document. It panics on unbound
// $variables; untrusted queries go through Engine.Query.
func (q *Prepared) Eval(doc *xmltree.Document) []*xmltree.Node {
	return xpath.EvalDoc(q.Optimized, doc)
}

// EvalIndexed runs a prepared query against a prebuilt label index. It
// panics on unbound $variables, like Eval.
func (q *Prepared) EvalIndexed(idx *xpath.Index) []*xmltree.Node {
	return xpath.EvalIndexed(q.Optimized, idx)
}

// Materialize builds the view instance T_v of a document — the view's
// semantics, used for auditing and testing, never on the query path.
func (e *Engine) Materialize(doc *xmltree.Document) (*secview.Materialized, error) {
	return secview.Materialize(e.view, doc)
}

// Audit checks that the derived view is sound and complete on a concrete
// document (Theorem 3.2's property, verified dynamically).
func (e *Engine) Audit(doc *xmltree.Document) error {
	_, err := secview.CheckSoundComplete(e.view, doc)
	return err
}
