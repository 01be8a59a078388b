// Package core wires the paper's full framework (Fig. 3) into one
// engine: a security administrator's access specification is compiled
// into a security view (package secview), user queries posed over the
// exposed view DTD are rewritten into equivalent document queries
// (package rewrite), optionally optimized against the document DTD
// (package optimize), and evaluated over the original document (package
// xpath) — the view itself is never materialized on the query path.
//
// On top of the paper's pipeline the engine adds a serving layer:
// rewritten-and-optimized plans are kept in a bounded LRU plan cache keyed
// on the canonical query text, so repeated queries skip the rewrite and
// optimize stages entirely; recursive views rewrite height-free (one plan
// per query, valid for documents of any height — see package rewrite,
// which keeps the Section 4.2 unfolding rewriter as a test oracle); and
// descendant queries over large compacted documents are answered from a
// cached per-document label index (Config.Indexed).
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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

// Capacities of the engine's caches. Plans are small (an AST per entry);
// label indexes hold a posting-list entry per document node, so the index
// cache is far tighter — sized for the handful of live documents a server
// actually queries.
const (
	DefaultPlanCacheCapacity  = 512
	DefaultIndexCacheCapacity = 16
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
// defaults: sequential evaluation, no answer cache.
type Config struct {
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

	// rw is the view's rewriter. It is height-independent: flat views
	// need no height, and recursive views rewrite to Rec automata.
	rw *rewrite.Rewriter

	// plans caches rewritten-and-optimized queries by canonical query
	// text so repeated queries skip rewrite+optimize.
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
	rw, err := rewrite.ForView(view)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		spec:    view.Spec,
		view:    view,
		opt:     optimize.New(view.Doc),
		cfg:     cfg,
		rw:      rw,
		plans:   plancache.New[*Prepared](DefaultPlanCacheCapacity),
		indexes: plancache.New[*xpath.Index](DefaultIndexCacheCapacity),
	}
	if cfg.AnswerCache {
		e.answers = anscache.New(cfg.answerCap())
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
// Rec automata. Surfaced in /explainz and /statsz.
func (e *Engine) RewriteMode() string { return e.rw.Mode() }

// Rewriter returns the engine's query rewriter. The height is ignored:
// every plan the engine builds is valid for documents of any height. It
// stays in the signature for callers written against the Section 4.2
// per-height API (rewrite.ForViewWithHeight is that oracle), and the
// error is always nil.
func (e *Engine) Rewriter(height int) (*rewrite.Rewriter, error) {
	return e.rw, nil
}

// Rewrite translates a view query into the equivalent document query p_t.
// The height is ignored (see Rewriter).
func (e *Engine) Rewrite(p xpath.Path, height int) (xpath.Path, error) {
	return e.RewriteCtx(context.Background(), p, height)
}

// RewriteCtx is Rewrite with observability: a context carrying a trace
// span gets a "rewrite" child span (see rewrite.RewriteCtx). The height
// is ignored (see Rewriter).
func (e *Engine) RewriteCtx(ctx context.Context, p xpath.Path, height int) (xpath.Path, error) {
	return e.rw.RewriteCtx(ctx, p)
}

// Optimize improves a document query using the document DTD's structural
// constraints (Section 5). It is equivalence-preserving and never errors:
// constructs outside the optimizer's reasoning pass through unchanged.
func (e *Engine) Optimize(p xpath.Path) xpath.Path {
	return e.opt.Optimize(p)
}

// prepared returns the cached plan for the query, keyed by its canonical
// text, building and caching it on a miss; a build the context cuts short (see
// QueryCtx) returns ctx.Err(). Queries with unbound $variables are
// rejected up front: depending on the document they would either error
// mid-evaluation or silently match nothing, and neither belongs in the
// cache. A context carrying a QueryMetrics carrier gets the cache
// outcome and, on a miss, the per-phase durations and plan shape; a
// context carrying a span gets "rewrite"/"optimize" child spans.
// Concurrent misses on one key may build the plan more than once and
// the last Put wins (GetOrCompute singleflights, but this path wants
// per-request metrics attribution, and a duplicate plan build is
// harmless).
func (e *Engine) prepared(ctx context.Context, p xpath.Path) (*Prepared, error) {
	if vars := xpath.Vars(p); len(vars) > 0 {
		return nil, fmt.Errorf("core: %w %v; bind them with xpath.BindVars before querying", ErrUnboundVars, vars)
	}
	key := xpath.String(p)
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
	pt, err := e.rw.RewriteCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	rewriteDone := time.Now()
	po, err := e.opt.OptimizeCtx(ctx, pt)
	if err != nil {
		return nil, err
	}
	if qm != nil {
		qm.Rewrite = rewriteDone.Sub(start)
		qm.Optimize = time.Since(rewriteDone)
		qm.RewrittenSize = xpath.Size(pt)
		qm.OptimizedSize = xpath.Size(po)
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
// the engine's cache when the same query text was answered before, and
// malformed or unbound-variable queries return an error rather than panicking.
func (e *Engine) Query(doc *xmltree.Document, p xpath.Path) ([]*xmltree.Node, error) {
	return e.QueryCtx(context.Background(), doc, p)
}

// QueryCtx is Query honoring a context: evaluation polls the context
// cooperatively and returns ctx.Err() once it is done, so callers can
// bound a query with a deadline or cancel it mid-flight. Rewrite and
// optimize poll it too, but run on for up to xpath.PlanGrace past the
// deadline: a plan that finishes within the grace is cached as on a
// successful query, so a retry hits it, while a plan build that cannot
// finish returns ctx.Err() and caches nothing.
//
// With Config.AnswerCache on, the prepared plan is first offered to the
// semantic answer cache: a provably-equal cached plan answers directly,
// a provable base-of-trailing-qualifiers match answers by filtering the
// cached node-set, and only a miss runs the evaluator (whose successful
// result is then cached). Hits report eval mode "cached".
func (e *Engine) QueryCtx(ctx context.Context, doc *xmltree.Document, p xpath.Path) ([]*xmltree.Node, error) {
	e.queries.Add(1)
	prep, err := e.prepared(ctx, p)
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
	// DocHeight is the document's height; RecursiveView flags the view
	// DTD as recursive; RewriteMode is the engine's rewriting strategy
	// (Engine.RewriteMode).
	DocHeight     int    `json:"doc_height"`
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
	ex := &Explain{
		Query:         xpath.String(p),
		DocHeight:     doc.Height(),
		RecursiveView: e.view.IsRecursive(),
		RewriteMode:   e.RewriteMode(),
	}
	_, ex.PlanWasCached = e.plans.Get(ex.Query)
	start := time.Now()
	pt, err := e.rw.RewriteCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	ex.RewriteNs = time.Since(start).Nanoseconds()
	ex.Rewritten = xpath.String(pt)
	ex.RewrittenSize = xpath.Size(pt)
	start = time.Now()
	po, err := e.opt.OptimizeCtx(ctx, pt)
	if err != nil {
		return nil, err
	}
	ex.OptimizeNs = time.Since(start).Nanoseconds()
	ex.Optimized = xpath.String(po)
	ex.OptimizedSize = xpath.Size(po)
	prep := &Prepared{Source: p, Rewritten: pt, Optimized: po, optimizedText: ex.Optimized}
	e.plans.Put(ex.Query, prep)
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
	// PlanCache reports the query text → plan cache; its Entries count
	// the distinct cached query texts.
	PlanCache plancache.Stats `json:"plan_cache"`
	// PlanCacheNodes sums the AST size of every cached optimized plan —
	// the memory side of the plan cache. Plans are height-independent,
	// so it tracks the cached queries, not the documents' heights.
	PlanCacheNodes int `json:"plan_cache_nodes"`
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
	var ans anscache.Stats
	if e.answers != nil {
		ans = e.answers.Stats()
	}
	return Stats{
		AnswerCache:     ans,
		Epoch:           e.epoch.Load(),
		Queries:         e.queries.Load(),
		Cancelled:       e.cancelled.Load(),
		PlanCache:       e.plans.Stats(),
		PlanCacheNodes:  e.planCacheNodes(),
		IndexCache:      e.indexes.Stats(),
		SequentialEvals: e.sequentialEvals.Load(),
		IndexedEvals:    e.indexedEvals.Load(),
		OrdinalEvals:    e.ordinalEvals.Load(),
		OptimizeRules:   rules,
		OptimizePruned:  pruned,
	}
}

// planCacheNodes sums the optimized-plan AST sizes across the plan
// cache. Point-in-time like the rest of Stats: concurrent Puts and
// evictions may be missed.
func (e *Engine) planCacheNodes() (nodes int) {
	e.plans.Each(func(_ string, prep *Prepared) {
		nodes += xpath.Size(prep.Optimized)
	})
	return nodes
}

// Prepared is a view query rewritten and optimized once, reusable across
// every document the engine serves (plans are height-independent).
// Engine.Query keeps these in its plan cache; Prepare hands one out
// directly.
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
// amortize translation across many documents and evaluations. It shares
// the plan cache with Query.
func (e *Engine) Prepare(p xpath.Path) (*Prepared, error) {
	return e.prepared(context.Background(), p)
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
