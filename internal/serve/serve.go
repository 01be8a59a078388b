// Package serve is the HTTP front-end of the query-serving stack: it
// exposes a policy.Registry over one document as a small, bounded
// service. Every request runs under a context deadline (the evaluators
// poll it cooperatively, so a runaway query is cut off mid-descent), an
// admission-control semaphore caps the number of in-flight evaluations
// (excess load is refused with 429 instead of queueing until collapse),
// and the observability surface reports the full counter stack:
//
//	/query    answer one view query
//	/statsz   JSON counters (server + per-class engine/plan caches)
//	/metricsz Prometheus text exposition of the same counters plus
//	          per-phase (parse/rewrite/optimize/eval) latency histograms
//	/queryz   per-fingerprint query statistics (internal/qstats): the
//	          top-K query shapes by cumulative eval time, count, or
//	          answer-cache miss rate
//	/explainz one query, freshly measured per phase, with its trace
//	/tracez   recent sampled request traces (span trees)
//	/healthz  liveness; 503 once graceful drain has begun
//	/debug/pprof/*  the runtime profiler
//
// Every admitted query carries a request ID and an obs.QueryMetrics
// carrier; one request in Config.TraceSampleEvery additionally records
// a span tree into a bounded ring. Requests slower than
// Config.SlowQueryThreshold are logged with their per-phase breakdown —
// as a structured JSONL wide event when Config.EventLog is set (errors
// always, plus one sampled request in Config.EventLogSampleEvery), as a
// plain log line otherwise. Query text in either log is truncated to
// maxLoggedQueryBytes so a pathological query cannot bloat the log.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anscache"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/latency"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/qstats"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Defaults for the zero Config.
const (
	DefaultTimeout       = 5 * time.Second
	DefaultMaxTimeout    = 30 * time.Second
	DefaultMaxInFlight   = 64
	DefaultSlowQuery     = time.Second
	DefaultTraceSampling = 0 // tracing off unless asked for
)

// Config tunes the server. The zero value gives the defaults above.
type Config struct {
	// DefaultTimeout bounds a request that does not pass ?timeout=.
	// Negative means no per-request default; the hard MaxTimeout cap
	// still applies, so no query ever runs unbounded.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request's deadline, including explicit
	// ?timeout= values.
	MaxTimeout time.Duration
	// MaxInFlight bounds concurrently evaluating queries; requests
	// beyond it are refused with 429 Too Many Requests.
	MaxInFlight int
	// SlowQueryThreshold is the elapsed time above which an admitted
	// query is logged with its per-phase breakdown. 0 means
	// DefaultSlowQuery; negative disables the slow-query log.
	SlowQueryThreshold time.Duration
	// TraceSampleEvery keeps a full span tree for one admitted request
	// in N (0 = tracing off; 1 = trace everything). /explainz always
	// traces regardless.
	TraceSampleEvery int
	// TraceRingSize bounds the ring of recent traces served by /tracez
	// (0 = obs.DefaultTraceRing).
	TraceRingSize int
	// QueryStatsCapacity bounds the per-fingerprint statistics registry
	// behind /queryz (0 = qstats.DefaultCapacity). The registry is
	// always on: its cost is one sharded-map update per answered query.
	QueryStatsCapacity int
	// EventLog, when set, receives one structured JSONL wide event per
	// error and per slow query, plus one sampled request in
	// EventLogSampleEvery. The writer is the caller's: svserve builds it
	// from -eventlog and closes it on shutdown.
	EventLog *eventlog.Writer
	// EventLogSampleEvery samples successful fast requests into the
	// event log: one in N (1 = every request; 0 = errors and slow
	// queries only, which always emit).
	EventLogSampleEvery int
	// Logf is the slow-query log sink used when EventLog is nil; nil
	// means log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) defaultTimeout() time.Duration {
	switch {
	case c.DefaultTimeout > 0:
		return c.DefaultTimeout
	case c.DefaultTimeout < 0:
		return 0
	}
	return DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return DefaultMaxTimeout
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) slowThreshold() time.Duration {
	switch {
	case c.SlowQueryThreshold > 0:
		return c.SlowQueryThreshold
	case c.SlowQueryThreshold < 0:
		return 0
	}
	return DefaultSlowQuery
}

// Phase indices for the per-phase duration digests.
const (
	phaseParse = iota
	phaseRewrite
	phaseOptimize
	phaseEval
	numPhases
)

var phaseNames = [numPhases]string{"parse", "rewrite", "optimize", "eval"}

// Server serves rewritten-query requests for one document and one
// policy registry. It is safe for concurrent use.
type Server struct {
	reg *policy.Registry
	doc *xmltree.Document
	cfg Config
	sem chan struct{}

	requests       atomic.Uint64
	ok             atomic.Uint64
	badRequests    atomic.Uint64
	internalErrors atomic.Uint64
	rejected       atomic.Uint64
	timeouts       atomic.Uint64
	clientCancels  atomic.Uint64
	panics         atomic.Uint64
	inFlight       atomic.Int64
	lat            latency.Digest
	started        time.Time

	// Observability: the request-ID sequence, drain flag, sampled-trace
	// ring, Prometheus registry, and the always-on per-request rollups —
	// per-phase latency digests plus the pipeline/cache/mode counters
	// they are keyed against (see observePipeline for the invariant).
	reqID    atomic.Uint64
	draining atomic.Bool
	tracer   *obs.Tracer
	metrics  *obs.Registry
	// qstats is the per-fingerprint registry behind /queryz. Every
	// answered query is observed strictly after s.pipeline increments,
	// so a /queryz count sum read before sv_pipeline_total can never
	// exceed it (see recordQuery).
	qstats *qstats.Registry

	phases       [numPhases]latency.Digest
	pipeline     atomic.Uint64
	planHits     atomic.Uint64
	planMisses   atomic.Uint64
	engineHits   atomic.Uint64
	engineMisses atomic.Uint64
	// evalCounts is the completed-pipeline eval matrix, indexed
	// [mode][repr] per evalModes/evalReprs — every sv_eval_total series
	// carries both the eval mode and the node-set representation, and
	// the /statsz per-mode counters are row sums of the same atomics.
	evalCounts  [len(evalModes)][len(evalReprs)]atomic.Uint64
	slowQueries atomic.Uint64
	explains    atomic.Uint64

	// query answers one admitted request; it defaults to the registry's
	// QueryCtx and exists so tests can inject evaluation failures.
	query func(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, q string) ([]*xmltree.Node, error)
	// explain answers one /explainz request; defaults to the registry's
	// ExplainCtx.
	explain func(ctx context.Context, class string, params map[string]string, doc *xmltree.Document, q string) (*core.Explain, error)

	// testHook, when set, runs while the request holds its admission
	// slot, before evaluation. Tests use it to pin requests in flight.
	testHook func()
}

// New builds a server over a registry and the document it answers
// queries against. The document must already conform to the registry's
// DTD; frontends validate at load time.
func New(reg *policy.Registry, doc *xmltree.Document, cfg Config) *Server {
	s := &Server{
		reg:     reg,
		doc:     doc,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.maxInFlight()),
		started: time.Now(),
		query:   reg.QueryCtx,
		explain: reg.ExplainCtx,
		tracer:  obs.NewTracer(cfg.TraceSampleEvery, cfg.TraceRingSize),
		metrics: obs.NewRegistry(),
		qstats:  qstats.New(cfg.QueryStatsCapacity),
	}
	s.registerMetrics()
	return s
}

// registerMetrics wires the server's counters into the Prometheus
// registry. Everything is a read-at-exposition bridge over the same
// atomics /statsz reports — the two endpoints can never double-count or
// disagree.
func (s *Server) registerMetrics() {
	m := s.metrics
	const respHelp = "Query responses by HTTP status code."
	m.CounterFunc("sv_requests_total", "Queries received by /query, admitted or not.", s.requests.Load)
	m.CounterFunc("sv_responses_total", respHelp, s.ok.Load, obs.L("code", "200"))
	m.CounterFunc("sv_responses_total", respHelp, s.badRequests.Load, obs.L("code", "400"))
	m.CounterFunc("sv_responses_total", respHelp, s.rejected.Load, obs.L("code", "429"))
	m.CounterFunc("sv_responses_total", respHelp, s.clientCancels.Load, obs.L("code", "499"))
	m.CounterFunc("sv_responses_total", respHelp, s.internalErrors.Load, obs.L("code", "500"))
	m.CounterFunc("sv_responses_total", respHelp, s.timeouts.Load, obs.L("code", "504"))
	m.CounterFunc("sv_explains_total", "/explainz requests admitted.", s.explains.Load)
	m.CounterFunc("sv_panics_total", "Handler panics recovered (answered 500 when no header had been written).", s.panics.Load)
	m.CounterFunc("sv_slow_queries_total", "Admitted queries slower than the slow-query threshold.", s.slowQueries.Load)
	m.GaugeFunc("sv_in_flight", "Queries currently holding an admission slot.", func() float64 {
		return float64(s.inFlight.Load())
	})
	m.GaugeFunc("sv_max_in_flight", "Admission-control capacity.", func() float64 {
		return float64(s.cfg.maxInFlight())
	})
	m.GaugeFunc("sv_draining", "1 once graceful drain has begun, else 0.", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	m.GaugeFunc("sv_uptime_seconds", "Seconds since the server was built.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	m.GaugeFunc("sv_document_nodes", "Nodes in the served document.", func() float64 {
		return float64(s.doc.Size())
	})
	m.GaugeFunc("sv_document_height", "Height of the served document.", func() float64 {
		return float64(s.doc.Height())
	})
	m.HistogramFunc("sv_request_duration_seconds", "End-to-end /query latency (admitted requests).", s.lat.Snapshot)
	const phaseHelp = "Per-phase pipeline latency; a plan-cache hit observes 0 for rewrite and optimize, so every phase's count equals sv_pipeline_total."
	for i := range s.phases {
		m.HistogramFunc("sv_phase_duration_seconds", phaseHelp, s.phases[i].Snapshot, obs.L("phase", phaseNames[i]))
	}
	m.CounterFunc("sv_pipeline_total", "Queries that completed the parse-rewrite-optimize-eval pipeline.", s.pipeline.Load)
	const planHelp = "Plan-cache outcomes for completed pipelines."
	m.CounterFunc("sv_plan_cache_total", planHelp, s.planHits.Load, obs.L("result", "hit"))
	m.CounterFunc("sv_plan_cache_total", planHelp, s.planMisses.Load, obs.L("result", "miss"))
	const engineHelp = "Per-binding engine-cache outcomes for completed pipelines."
	m.CounterFunc("sv_engine_cache_total", engineHelp, s.engineHits.Load, obs.L("result", "hit"))
	m.CounterFunc("sv_engine_cache_total", engineHelp, s.engineMisses.Load, obs.L("result", "miss"))
	const modeHelp = "Completed pipelines by the eval mode actually taken and the node-set representation (repr) evaluation used."
	for mi := range evalModes {
		for ri := range evalReprs {
			m.CounterFunc("sv_eval_total", modeHelp, s.evalCounts[mi][ri].Load,
				obs.L("mode", evalModes[mi]), obs.L("repr", evalReprs[ri]))
		}
	}
	// Semantic answer-cache counters, rolled up over every cached engine
	// like the plan-cache gauges below. All four stay 0 with -anscache
	// off, which promcheck accepts (a counter may be zero, not absent).
	ansSum := func(pick func(anscache.Stats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, cs := range s.reg.Stats() {
				for _, b := range cs.Bindings {
					n += pick(b.Engine.AnswerCache)
				}
			}
			return n
		}
	}
	m.CounterFunc("sv_anscache_hits_total", "Answer-cache equal hits: the incoming plan was provably the same query as a cached one.",
		ansSum(func(a anscache.Stats) uint64 { return a.Hits }))
	m.CounterFunc("sv_anscache_containment_hits_total", "Answer-cache containment hits: the answer was filtered from a provably containing cached result.",
		ansSum(func(a anscache.Stats) uint64 { return a.ContainmentHits }))
	m.CounterFunc("sv_anscache_misses_total", "Answer-cache misses: no provably-safe cached entry; the evaluator ran.",
		ansSum(func(a anscache.Stats) uint64 { return a.Misses }))
	m.CounterFunc("sv_anscache_evictions_total", "Answer-cache entries evicted by the LRU bound.",
		ansSum(func(a anscache.Stats) uint64 { return a.Evictions }))
	m.GaugeFunc("sv_plan_cache_nodes", "Total AST nodes across all cached optimized plans (all classes and bindings); plans are height-independent, so this tracks the cached queries.", func() float64 {
		n := 0
		for _, cs := range s.reg.Stats() {
			for _, b := range cs.Bindings {
				n += b.Engine.PlanCacheNodes
			}
		}
		return float64(n)
	})
	m.GaugeFunc("sv_plan_cache_distinct_queries", "Distinct query texts across all cached plans (all classes and bindings).", func() float64 {
		n := 0
		for _, cs := range s.reg.Stats() {
			for _, b := range cs.Bindings {
				n += b.Engine.PlanCache.Entries
			}
		}
		return float64(n)
	})
	const traceHelp = "Traces started and kept by the sampler (explain traces included)."
	m.CounterFunc("sv_traces_total", traceHelp, func() uint64 { st, _ := s.tracer.Stats(); return st }, obs.L("state", "started"))
	m.CounterFunc("sv_traces_total", traceHelp, func() uint64 { _, k := s.tracer.Stats(); return k }, obs.L("state", "kept"))
	// Fingerprint-registry health (/queryz): row occupancy against its
	// bound, plus the observation/eviction counters that say whether the
	// top-K is exact (zero evictions) or carries space-saving slack.
	m.GaugeFunc("sv_qstats_fingerprints", "Query fingerprints currently tracked by the /queryz registry.", func() float64 {
		return float64(s.qstats.Stats().Fingerprints)
	})
	m.GaugeFunc("sv_qstats_capacity", "Fingerprint bound of the /queryz registry.", func() float64 {
		return float64(s.qstats.Capacity())
	})
	m.CounterFunc("sv_qstats_observations_total", "Answered queries folded into the fingerprint registry.", func() uint64 {
		return s.qstats.Stats().Observations
	})
	m.CounterFunc("sv_qstats_evictions_total", "Space-saving evictions in the fingerprint registry (nonzero means some rows carry a count_slack bound).", func() uint64 {
		return s.qstats.Stats().Evictions
	})
	const evHelp = "Structured wide-event log activity; both 0 when -eventlog is off."
	m.CounterFunc("sv_eventlog_events_total", evHelp, func() uint64 {
		if s.cfg.EventLog == nil {
			return 0
		}
		ev, _ := s.cfg.EventLog.Stats()
		return ev
	})
	m.CounterFunc("sv_eventlog_rotations_total", evHelp, func() uint64 {
		if s.cfg.EventLog == nil {
			return 0
		}
		_, rot := s.cfg.EventLog.Stats()
		return rot
	})
}

// Metrics returns the server's Prometheus registry (the /metricsz
// content), so embedders can add their own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer returns the server's trace sampler, so embedders and tests can
// adjust the sampling knob at runtime.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// BeginDrain flips /healthz to 503 so load balancers stop routing new
// work here while in-flight queries finish. The HTTP listener shutdown
// itself is the caller's job (http.Server.Shutdown); this only
// publishes the intent. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the server's route table; see the package comment for
// the endpoint inventory.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metricsz", s.handleMetricsz)
	mux.HandleFunc("/queryz", s.handleQueryz)
	mux.HandleFunc("/explainz", s.handleExplainz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.recoverPanics(mux)
}

// recoverPanics wraps h so that a panicking handler is counted in
// sv_panics_total and logged with its stack, and — when it had not yet
// written a header — answered 500 with a JSON error body, instead of
// net/http's default of dropping the connection. http.ErrAbortHandler
// is net/http's own abort signal and passes through untouched.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hw := &headerWatch{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.panics.Add(1)
			s.logf("svserve: panic serving %s: %v\n%s", r.URL.Path, v, debug.Stack())
			if !hw.wrote {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": "internal server error"})
			}
		}()
		h.ServeHTTP(hw, r)
	})
}

// headerWatch records whether a handler has started its response.
type headerWatch struct {
	http.ResponseWriter
	wrote bool
}

func (h *headerWatch) WriteHeader(code int) {
	h.wrote = true
	h.ResponseWriter.WriteHeader(code)
}

func (h *headerWatch) Write(b []byte) (int, error) {
	h.wrote = true
	return h.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (h *headerWatch) Unwrap() http.ResponseWriter { return h.ResponseWriter }

// queryRequest is one parsed /query or /explainz request.
type queryRequest struct {
	class   string
	query   string
	params  map[string]string
	timeout time.Duration
}

// maxFormBytes caps a /query or /explainz request body. A form that
// large already holds a query far past anything the parser's depth
// bound and the plan memos are sized for; without the cap, net/http's
// 10 MB default for url-encoded bodies was the only one.
const maxFormBytes = 1 << 20

// errFormTooLarge reports a request body over maxFormBytes.
var errFormTooLarge = fmt.Errorf("request body exceeds %d bytes", maxFormBytes)

// parseQueryRequest validates the shared request parameters: class
// (required), q (required), param=name=value (repeatable), timeout (Go
// duration, clamped to Config.MaxTimeout). A request body is read
// through http.MaxBytesReader, so an oversized form fails with
// errFormTooLarge after maxFormBytes and the connection is closed after
// the answer. (A GET's parameters arrive in the request line, which the
// server's header limit bounds, and it has no body to wrap.)
func (s *Server) parseQueryRequest(w http.ResponseWriter, r *http.Request) (*queryRequest, error) {
	if r.Body != nil && r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(w, r.Body, maxFormBytes)
	}
	if err := r.ParseForm(); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errFormTooLarge
		}
		return nil, fmt.Errorf("malformed form: %v", err)
	}
	req := &queryRequest{
		class: r.Form.Get("class"),
		query: r.Form.Get("q"),
	}
	if req.class == "" || req.query == "" {
		return nil, errors.New("need class= and q= parameters")
	}
	params, err := parseParams(r.Form["param"])
	if err != nil {
		return nil, err
	}
	req.params = params
	req.timeout = s.cfg.defaultTimeout()
	if v := r.Form.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad timeout %q (want a positive Go duration like 250ms)", v)
		}
		req.timeout = d
	}
	if max := s.cfg.maxTimeout(); req.timeout == 0 || req.timeout > max {
		req.timeout = max
	}
	return req, nil
}

// admit claims an admission slot or answers 429. Callers that get true
// must call release.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		// Refuse instead of queueing: a saturated server answering 429
		// immediately keeps latency bounded for the queries it did
		// admit; clients retry with backoff.
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: too many in-flight queries", http.StatusTooManyRequests)
		return false
	}
	s.inFlight.Add(1)
	return true
}

func (s *Server) release() {
	s.inFlight.Add(-1)
	<-s.sem
}

// requestCtx derives the per-request evaluation context.
func requestCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// handleQuery answers one view query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	req, err := s.parseQueryRequest(w, r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	if s.testHook != nil {
		s.testHook()
	}

	id := s.reqID.Add(1)
	ctx, cancel := requestCtx(r, req.timeout)
	defer cancel()

	// Always-on per-request accounting; additionally a span tree for
	// one request in TraceSampleEvery.
	qm := &obs.QueryMetrics{}
	ctx = obs.WithQueryMetrics(ctx, qm)
	tr := s.tracer.Sample("request")
	if tr != nil {
		tr.Root.SetAttr("request_id", id)
		tr.Root.SetAttr("class", req.class)
		tr.Root.SetAttr("query", req.query)
		ctx = obs.ContextWithSpan(ctx, tr.Root)
	}

	start := time.Now()
	nodes, err := s.query(ctx, req.class, req.params, s.doc, req.query)
	elapsed := time.Since(start)
	s.lat.Observe(elapsed)
	status := http.StatusOK
	switch {
	case err == nil:
		s.ok.Add(1)
		s.observePipeline(qm)
		writeResult(w, nodes)
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		s.timeouts.Add(1)
		http.Error(w, fmt.Sprintf("query exceeded its %v deadline", req.timeout), status)
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written, but the
		// status keeps the access log honest (499 is the de-facto
		// client-closed-request code).
		status = 499
		s.clientCancels.Add(1)
		w.WriteHeader(status)
	case clientFault(err):
		status = http.StatusBadRequest
		s.badRequest(w, err)
	default:
		// The request was well-formed; the failure is the server's
		// (derivation, rewriting, or evaluation broke). Reporting it as
		// 400 would tell the client to stop retrying a query that is
		// fine, and would hide server bugs from the error budget.
		status = http.StatusInternalServerError
		s.internalErrors.Add(1)
		http.Error(w, fmt.Sprintf("internal error answering query: %v", err), status)
	}
	if tr != nil {
		tr.Root.SetAttr("status", status)
		s.tracer.Keep(tr)
	}
	s.recordQuery(id, req, elapsed, status, qm, len(nodes))
}

// observePipeline feeds one successfully answered request's per-phase
// accounting into the always-on metrics. All four phase digests are
// observed exactly once per call — a plan-cache hit contributes a zero
// rewrite/optimize duration rather than no sample — so each phase
// histogram's count equals sv_pipeline_total by construction, and the
// per-phase sums show where wall time actually went, cache and all.
func (s *Server) observePipeline(qm *obs.QueryMetrics) {
	s.pipeline.Add(1)
	s.phases[phaseParse].Observe(qm.Parse)
	s.phases[phaseRewrite].Observe(qm.Rewrite)
	s.phases[phaseOptimize].Observe(qm.Optimize)
	s.phases[phaseEval].Observe(qm.Eval)
	if qm.PlanCacheHit {
		s.planHits.Add(1)
	} else {
		s.planMisses.Add(1)
	}
	if qm.EngineCacheHit {
		s.engineHits.Add(1)
	} else {
		s.engineMisses.Add(1)
	}
	if mi := evalModeIndex(qm.EvalMode); mi >= 0 {
		s.evalCounts[mi][reprIndex(qm.SetRepr)].Add(1)
	}
}

// evalModes and evalReprs order the eval-counter matrix; indexes are
// resolved by evalModeIndex/reprIndex.
var (
	evalModes = [...]string{obs.ModeSequential, obs.ModeIndexed, obs.ModeCached}
	evalReprs = [...]string{obs.ReprSlice, obs.ReprBitset}
)

func evalModeIndex(mode string) int {
	for i, m := range evalModes {
		if m == mode {
			return i
		}
	}
	return -1
}

// reprIndex defaults to the slice row: a pipeline that never reported
// a representation ran some path outside the compaction gate.
func reprIndex(repr string) int {
	if repr == obs.ReprBitset {
		return 1
	}
	return 0
}

// evalModeTotal sums one mode's row across representations — the
// /statsz per-mode counters, unchanged by the repr split.
func (s *Server) evalModeTotal(mi int) uint64 {
	var n uint64
	for ri := range evalReprs {
		n += s.evalCounts[mi][ri].Load()
	}
	return n
}

// evalReprTotal sums one representation's column across modes.
func (s *Server) evalReprTotal(ri int) uint64 {
	var n uint64
	for mi := range evalModes {
		n += s.evalCounts[mi][ri].Load()
	}
	return n
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// maxLoggedQueryBytes bounds query text in the slow-query line and in
// event-log records: a 100KB query must not become a 100KB log line.
// The fingerprint still identifies the full query via /queryz.
const maxLoggedQueryBytes = 512

// truncateForLog clips q to maxLoggedQueryBytes, marking the cut.
func truncateForLog(q string) string {
	if len(q) <= maxLoggedQueryBytes {
		return q
	}
	return q[:maxLoggedQueryBytes] + "...[truncated]"
}

// queryEvent is one wide event in the structured request log: every
// field of the request's QueryMetrics carrier plus identity (request
// id, class, fingerprint) and outcome (status, kind). Durations are
// microseconds at this JSON edge, per the repo-wide unit discipline.
type queryEvent struct {
	TimeUnixUs int64 `json:"time_unix_us"`
	// Kind says why the event was emitted: "error" (non-200 status),
	// "slow" (over the slow-query threshold), or "sampled" (one in
	// EventLogSampleEvery). Precedence in that order; each request emits
	// at most one event.
	Kind      string `json:"kind"`
	RequestID uint64 `json:"request_id"`
	Class     string `json:"class"`
	Status    int    `json:"status"`
	// Query is the surface query, truncated to maxLoggedQueryBytes;
	// Fingerprint joins the event to its /queryz row.
	Query       string `json:"query"`
	Fingerprint string `json:"fingerprint"`

	TotalUs    int64 `json:"total_us"`
	ParseUs    int64 `json:"parse_us"`
	RewriteUs  int64 `json:"rewrite_us"`
	OptimizeUs int64 `json:"optimize_us"`
	EvalUs     int64 `json:"eval_us"`

	PlanCacheHit   bool   `json:"plan_cache_hit"`
	EngineCacheHit bool   `json:"engine_cache_hit"`
	AnswerCache    string `json:"answer_cache,omitempty"`
	EvalMode       string `json:"eval_mode,omitempty"`
	SetRepr        string `json:"set_repr,omitempty"`

	NodesVisited uint64 `json:"nodes_visited"`
	ResultCount  int    `json:"result_count"`
}

// recordQuery is the post-response accounting for one admitted query:
// it folds answered requests into the fingerprint registry, counts slow
// queries, and emits at most one wide event (or the legacy slow-query
// log line when no event log is configured).
//
// Ordering invariant: for answered requests observePipeline has already
// incremented s.pipeline in this goroutine, so the qstats observation
// lands strictly after it. A reader that sums /queryz counts before
// loading sv_pipeline_total therefore never sees the sum exceed the
// pipeline total; at quiescence the two are equal.
func (s *Server) recordQuery(id uint64, req *queryRequest, elapsed time.Duration, status int, qm *obs.QueryMetrics, results int) {
	if status == http.StatusOK {
		s.qstats.Observe(req.class, qm.PlanText, req.query, qstats.Observation{
			Total:              elapsed,
			Rewrite:            qm.Rewrite,
			Optimize:           qm.Optimize,
			Eval:               qm.Eval,
			PlanCacheHit:       qm.PlanCacheHit,
			AnswerCacheOutcome: qm.AnswerCacheHit,
			EvalMode:           qm.EvalMode,
			SetRepr:            qm.SetRepr,
			NodesVisited:       qm.NodesVisited,
			ResultCount:        results,
		})
	}
	thr := s.cfg.slowThreshold()
	slow := thr > 0 && elapsed >= thr
	if slow {
		s.slowQueries.Add(1)
	}
	if s.cfg.EventLog == nil {
		if slow {
			s.logf("svserve: slow query id=%d class=%s q=%q status=%d total=%v parse=%v rewrite=%v optimize=%v eval=%v plan_cache_hit=%t mode=%s",
				id, req.class, truncateForLog(req.query), status, elapsed, qm.Parse, qm.Rewrite, qm.Optimize, qm.Eval, qm.PlanCacheHit, qm.EvalMode)
		}
		return
	}
	var kind string
	switch {
	case status != http.StatusOK:
		kind = "error"
	case slow:
		kind = "slow"
	case s.cfg.EventLogSampleEvery > 0 && id%uint64(s.cfg.EventLogSampleEvery) == 0:
		kind = "sampled"
	default:
		return
	}
	// The fingerprint falls back to the surface query exactly like
	// qstats.Observe does, so error events (which may predate plan
	// surfacing) still join /queryz rows when one exists.
	plan := qm.PlanText
	if plan == "" {
		plan = req.query
	}
	ev := queryEvent{
		TimeUnixUs:     time.Now().UnixMicro(),
		Kind:           kind,
		RequestID:      id,
		Class:          req.class,
		Status:         status,
		Query:          truncateForLog(req.query),
		Fingerprint:    qstats.Fingerprint(req.class, plan),
		TotalUs:        elapsed.Microseconds(),
		ParseUs:        qm.Parse.Microseconds(),
		RewriteUs:      qm.Rewrite.Microseconds(),
		OptimizeUs:     qm.Optimize.Microseconds(),
		EvalUs:         qm.Eval.Microseconds(),
		PlanCacheHit:   qm.PlanCacheHit,
		EngineCacheHit: qm.EngineCacheHit,
		AnswerCache:    qm.AnswerCacheHit,
		EvalMode:       qm.EvalMode,
		SetRepr:        qm.SetRepr,
		NodesVisited:   qm.NodesVisited,
		ResultCount:    results,
	}
	if err := s.cfg.EventLog.Emit(ev); err != nil {
		s.logf("svserve: event log write failed: %v", err)
	}
}

// explainzResponse is the /explainz JSON document: the engine's
// per-phase explain plus the span tree of this exact request.
type explainzResponse struct {
	RequestID uint64            `json:"request_id"`
	Class     string            `json:"class"`
	Params    map[string]string `json:"params,omitempty"`
	TotalNs   int64             `json:"total_ns"`
	Explain   *core.Explain     `json:"explain"`
	Trace     obs.TraceSnapshot `json:"trace"`
}

// handleExplainz answers one query through the explain path: rewrite
// and optimize run fresh (bypassing the plan cache) so every phase has
// a real measured duration, and the request is always traced regardless
// of the sampling knob. Parameters are the same as /query.
func (s *Server) handleExplainz(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseQueryRequest(w, r)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	s.explains.Add(1)

	id := s.reqID.Add(1)
	ctx, cancel := requestCtx(r, req.timeout)
	defer cancel()

	tr := s.tracer.Start("explain")
	tr.Root.SetAttr("request_id", id)
	tr.Root.SetAttr("class", req.class)
	tr.Root.SetAttr("query", req.query)
	ctx = obs.ContextWithSpan(ctx, tr.Root)

	start := time.Now()
	ex, err := s.explain(ctx, req.class, req.params, s.doc, req.query)
	elapsed := time.Since(start)
	if err != nil {
		tr.Root.SetAttr("error", err.Error())
		s.tracer.Keep(tr)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timeouts.Add(1)
			http.Error(w, fmt.Sprintf("explain exceeded its %v deadline", req.timeout), http.StatusGatewayTimeout)
		case errors.Is(err, context.Canceled):
			s.clientCancels.Add(1)
			w.WriteHeader(499)
		case clientFault(err):
			s.badRequest(w, err)
		default:
			s.internalErrors.Add(1)
			http.Error(w, fmt.Sprintf("internal error explaining query: %v", err), http.StatusInternalServerError)
		}
		return
	}
	s.tracer.Keep(tr)
	writeJSON(w, explainzResponse{
		RequestID: id,
		Class:     req.class,
		Params:    req.params,
		TotalNs:   elapsed.Nanoseconds(),
		Explain:   ex,
		Trace:     obs.TraceSnapshot{ID: tr.ID, Root: tr.Root.Snapshot()},
	})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// QueryStats returns the server's per-fingerprint registry (the /queryz
// content), so embedders and load tools can read it directly.
func (s *Server) QueryStats() *qstats.Registry { return s.qstats }

// QueryzResponse is the /queryz JSON document: the registry's own
// accounting plus the top fingerprints under the requested sort.
type QueryzResponse struct {
	// Sort is the applied sort key (?sort=, default eval_time) and N the
	// applied row bound (?n=, default 50; n<=0 returns every row).
	Sort string `json:"sort"`
	N    int    `json:"n"`
	// Registry is the fingerprint registry's own accounting. At
	// quiescence the Count sum over ALL rows (n<=0) equals
	// Registry.Observations equals sv_pipeline_total.
	Registry qstats.Stats              `json:"registry"`
	Top      []qstats.FingerprintStats `json:"top"`
}

// handleQueryz dumps per-fingerprint query statistics, heaviest first.
// ?sort= picks the key (eval_time, total_time, count, miss_rate); ?n=
// bounds the rows (0 or negative = all).
func (s *Server) handleQueryz(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.FormValue("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			s.badRequest(w, fmt.Errorf("bad n %q (want an integer)", v))
			return
		}
		n = parsed
	}
	by := r.FormValue("sort")
	switch by {
	case "":
		by = qstats.SortEvalTime
	case qstats.SortEvalTime, qstats.SortTotalTime, qstats.SortCount, qstats.SortMissRate:
	default:
		s.badRequest(w, fmt.Errorf("bad sort %q (want %s, %s, %s, or %s)",
			by, qstats.SortEvalTime, qstats.SortTotalTime, qstats.SortCount, qstats.SortMissRate))
		return
	}
	writeJSON(w, QueryzResponse{
		Sort:     by,
		N:        n,
		Registry: s.qstats.Stats(),
		Top:      s.qstats.Top(n, by),
	})
}

// handleTracez dumps the most recent sampled traces, newest first
// (?n= bounds the count).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.FormValue("n"); v != "" {
		n, _ = strconv.Atoi(v)
	}
	started, kept := s.tracer.Stats()
	writeJSON(w, map[string]any{
		"sample_every": s.tracer.SampleEvery(),
		"started":      started,
		"kept":         kept,
		"traces":       s.tracer.Recent(n),
	})
}

// handleHealthz reports liveness — and readiness: once a graceful drain
// has begun it answers 503 so load balancers route new work elsewhere
// while in-flight queries finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// clientFault reports whether a Registry.QueryCtx error is the client's
// fault: a class the registry does not define, query syntax the parser
// rejected, or a $parameter the request failed to bind. Everything else
// — view derivation, rewriting, or evaluation failing on a well-formed
// request — is the server's fault and must surface as a 5xx.
func clientFault(err error) bool {
	var parseErr *xpath.ParseError
	var bindErr *policy.BindingError
	return errors.Is(err, policy.ErrUnknownClass) ||
		errors.Is(err, core.ErrUnboundVars) ||
		errors.As(err, &parseErr) ||
		errors.As(err, &bindErr)
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.badRequests.Add(1)
	if errors.Is(err, errFormTooLarge) {
		// Machine-readable, so a client can tell "shrink the request"
		// from a query error.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "limit_bytes": maxFormBytes})
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// writeResult wraps the selected nodes in a <result> envelope so the
// response body is a single well-formed XML document. The envelope and
// every node are appended into one pooled buffer and sent with a single
// Write.
func writeResult(w http.ResponseWriter, nodes []*xmltree.Node) {
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	bp := resultBufs.Get().(*[]byte)
	b := append((*bp)[:0], `<result count="`...)
	b = strconv.AppendInt(b, int64(len(nodes)), 10)
	b = append(b, "\">\n"...)
	for _, n := range nodes {
		b = n.AppendXML(b)
	}
	b = append(b, "</result>\n"...)
	w.Write(b)
	if cap(b) <= maxPooledResult {
		*bp = b
		resultBufs.Put(bp)
	}
}

// resultBufs recycles writeResult's response buffers. A buffer that
// grew past maxPooledResult for one huge answer is left to the garbage
// collector rather than pinned in the pool.
var resultBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

const maxPooledResult = 64 << 10

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func parseParams(kvs []string) (map[string]string, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	params := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		name, value, ok := strings.Cut(kv, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad param %q (want name=value)", kv)
		}
		params[name] = value
	}
	return params, nil
}

// LatencyStats is the /statsz latency section: a count/sum pair, the
// exact observed maximum, histogram-derived percentile estimates, and
// the full bucket histogram (the geometric ladder of latency.Bounds,
// 100µs–10s plus +inf; each observation lands in exactly one bucket, so
// the bucket counts sum to count). Microsecond units on the wire; the
// digests underneath are nanosecond-based.
type LatencyStats struct {
	Count     uint64  `json:"count"`
	SumMicros uint64  `json:"sum_us"`
	MaxMicros float64 `json:"max_us"`
	// P50/P95/P99Micros are estimated from the histogram by linear
	// interpolation within the rank's bucket (clamped to the observed
	// max), so they are honest to within one bucket rung.
	P50Micros float64           `json:"p50_us"`
	P95Micros float64           `json:"p95_us"`
	P99Micros float64           `json:"p99_us"`
	Buckets   map[string]uint64 `json:"buckets"`
}

func latencyStats(snap latency.Snapshot) LatencyStats {
	return LatencyStats{
		Count:     snap.Count,
		SumMicros: snap.SumUs(),
		MaxMicros: float64(snap.MaxNs) / 1e3,
		P50Micros: snap.QuantileUs(0.50),
		P95Micros: snap.QuantileUs(0.95),
		P99Micros: snap.QuantileUs(0.99),
		Buckets:   snap.BucketMap(),
	}
}

// ServerStats is the server section of /statsz.
type ServerStats struct {
	Requests       uint64       `json:"requests"`
	OK             uint64       `json:"ok"`
	BadRequests    uint64       `json:"bad_requests"`
	InternalErrors uint64       `json:"internal_errors"`
	Rejected       uint64       `json:"rejected"`
	Timeouts       uint64       `json:"timeouts"`
	ClientCancels  uint64       `json:"client_cancels"`
	InFlight       int64        `json:"in_flight"`
	MaxInFlight    int          `json:"max_in_flight"`
	UptimeSeconds  float64      `json:"uptime_seconds"`
	DocumentNodes  int          `json:"document_nodes"`
	DocumentHeight int          `json:"document_height"`
	Draining       bool         `json:"draining"`
	SlowQueries    uint64       `json:"slow_queries"`
	Explains       uint64       `json:"explains"`
	Latency        LatencyStats `json:"latency"`
	// Pipeline is the completed-pipeline rollup: the per-phase latency
	// digests and the cache/mode outcome counters keyed to them (every
	// phase count equals Pipeline.Count; see observePipeline).
	Pipeline PipelineStats `json:"pipeline"`
}

// PipelineStats reports the always-on per-phase accounting.
// ParallelEvals is kept for readers of the /statsz format and always
// reads 0: there is no parallel eval mode.
type PipelineStats struct {
	Count           uint64                  `json:"count"`
	PlanCacheHits   uint64                  `json:"plan_cache_hits"`
	PlanCacheMisses uint64                  `json:"plan_cache_misses"`
	EngineHits      uint64                  `json:"engine_cache_hits"`
	EngineMisses    uint64                  `json:"engine_cache_misses"`
	SequentialEvals uint64                  `json:"sequential_evals"`
	ParallelEvals   uint64                  `json:"parallel_evals"`
	IndexedEvals    uint64                  `json:"indexed_evals"`
	CachedEvals     uint64                  `json:"cached_evals"`
	BitsetEvals     uint64                  `json:"bitset_evals"`
	SliceEvals      uint64                  `json:"slice_evals"`
	Phases          map[string]LatencyStats `json:"phases"`
}

// Statsz is the full /statsz document: the server's own counters plus
// the per-class rollup from the policy registry (engine caches, and for
// every cached engine its plan-cache and evaluation counters).
type Statsz struct {
	Server  ServerStats         `json:"server"`
	Classes []policy.ClassStats `json:"classes"`
}

// Stats snapshots the server and registry counters.
//
// Read ordering matters for snapshots taken under load: effect counters
// are read before their cause counters (response classes before
// requests, phase digests before the pipeline count), so every effect a
// snapshot contains has its cause in the same snapshot. Mid-flight the
// response classes sum to at most Requests and each phase count is at
// most Pipeline.Count; at quiescence both are exact equalities.
func (s *Server) Stats() Statsz {
	phases := make(map[string]LatencyStats, numPhases)
	for i := range s.phases {
		phases[phaseNames[i]] = latencyStats(s.phases[i].Snapshot())
	}
	pipeline := s.pipeline.Load()
	ok := s.ok.Load()
	badRequests := s.badRequests.Load()
	internalErrors := s.internalErrors.Load()
	rejected := s.rejected.Load()
	timeouts := s.timeouts.Load()
	clientCancels := s.clientCancels.Load()
	return Statsz{
		Server: ServerStats{
			Requests:       s.requests.Load(),
			OK:             ok,
			BadRequests:    badRequests,
			InternalErrors: internalErrors,
			Rejected:       rejected,
			Timeouts:       timeouts,
			ClientCancels:  clientCancels,
			InFlight:       s.inFlight.Load(),
			MaxInFlight:    s.cfg.maxInFlight(),
			UptimeSeconds:  time.Since(s.started).Seconds(),
			DocumentNodes:  s.doc.Size(),
			DocumentHeight: s.doc.Height(),
			Draining:       s.draining.Load(),
			SlowQueries:    s.slowQueries.Load(),
			Explains:       s.explains.Load(),
			Latency:        latencyStats(s.lat.Snapshot()),
			Pipeline: PipelineStats{
				Count:           pipeline,
				PlanCacheHits:   s.planHits.Load(),
				PlanCacheMisses: s.planMisses.Load(),
				EngineHits:      s.engineHits.Load(),
				EngineMisses:    s.engineMisses.Load(),
				SequentialEvals: s.evalModeTotal(0),
				IndexedEvals:    s.evalModeTotal(1),
				CachedEvals:     s.evalModeTotal(2),
				BitsetEvals:     s.evalReprTotal(1),
				SliceEvals:      s.evalReprTotal(0),
				Phases:          phases,
			},
		},
		Classes: s.reg.Stats(),
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
