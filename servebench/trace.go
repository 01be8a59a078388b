package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// The ledger's layers, in the order a request meets them. The self
// times derivedNote names are obtained by subtraction; every other is a
// timed call into that layer's public API.
const (
	lParse = iota
	lEngine
	lRewrite
	lOptimize
	lPlanCache
	lAnsCache
	lEval
	lSerialize
	lHandler
	lLoopback
	lUnattributed
	numLayers
)

var layerNames = [numLayers]string{
	"xpath.parse", "policy.engine", "rewrite", "optimize", "core.plancache", "anscache",
	"xpath.eval", "xmltree.serialize", "serve.handler", "net.loopback", "unattributed",
}

// derivedNote marks the self times obtained by subtraction.
var derivedNote = [numLayers]string{
	lPlanCache:    "derived on misses: Engine.Prepare minus rewrite and optimize",
	lAnsCache:     "derived on misses: Engine.QueryCtx minus its evaluation",
	lHandler:      "derived: ServeHTTP minus the layers above",
	lUnattributed: "derived: round trip minus ServeHTTP minus loopback",
}

// maxSpanRequests bounds the requests whose spans are kept for the
// dump.
const maxSpanRequests = 2000

// span is one timed call. Spans of a request share Req and point at
// the request's root span, whose Parent is -1. Charged is false for
// probe calls the ledger does not count (rewrite and optimize on a
// plan-cache hit, and Engine.QueryCtx on an answer-cache miss, which
// the ledger splits).
type span struct {
	Req     int    `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Charged bool   `json:"charged"`
}

// call is one measured call: its span and the allocations it made.
type call struct {
	start, end time.Time
	allocs     uint64
}

func (c call) d() time.Duration { return c.end.Sub(c.start) }

// tracer times calls and counts their allocations. The traced loop is
// a single client, so the process-wide malloc count between two reads
// belongs to the call between them.
type tracer struct {
	t0    time.Time
	ms    runtime.MemStats
	spans []span
	root  int // index of the current request's root span, -1 if not kept
}

func (t *tracer) measure(f func()) call {
	runtime.ReadMemStats(&t.ms)
	a0 := t.ms.Mallocs
	start := time.Now()
	f()
	end := time.Now()
	runtime.ReadMemStats(&t.ms)
	return call{start: start, end: end, allocs: t.ms.Mallocs - a0}
}

// begin opens a request's root span.
func (t *tracer) begin(req int) {
	t.root = -1
	if req < maxSpanRequests {
		t.root = len(t.spans)
		now := time.Since(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{Req: req, ID: t.root, Parent: -1, Name: "request", StartNs: now, EndNs: now, Charged: true})
	}
}

// end closes the current root span.
func (t *tracer) end() {
	if t.root >= 0 {
		t.spans[t.root].EndNs = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) keep(name string, c call, charged bool) {
	if t.root < 0 {
		return
	}
	t.spans = append(t.spans, span{
		Req: t.spans[t.root].Req, ID: len(t.spans), Parent: t.root, Name: name,
		StartNs: c.start.Sub(t.t0).Nanoseconds(), EndNs: c.end.Sub(t.t0).Nanoseconds(), Charged: charged,
	})
}

// ledger accumulates per-request layer self times and counts.
type ledger struct {
	requests      int
	self          [numLayers]float64 // ns
	allocs        [numLayers]float64
	roundTrip     float64 // ns, the traced per-request time
	planMisses    int
	rewriteOut    float64
	sizeRatio     float64
	rulesFired    uint64
	astNodes      float64
	visited       float64
	results       float64
	serBytes      float64
	engineHits    uint64
	engineLookups uint64
}

// traced runs the traced ledger. It first measures untraced throughput
// with one client, then builds three fresh stacks over the same
// document and sends each the same request sequence: S is called layer
// by layer, A through its handler with a discarding writer, and B over
// loopback. Their own caches keep the three in the same cache state at
// every request.
func traced(o options, xml []byte, st stamp) (*result, error) {
	w := o.workload
	times, doc, orc, all, plain, err := untracedOneClient(o, xml)
	if err != nil {
		return nil, err
	}
	cfg := engineConfig(w)
	t := &tracedRun{w: w, doc: doc, idx: xpath.NewIndex(doc), prevStats: map[*core.Engine]core.Stats{}}
	if _, t.classS, err = newRegistry(dtds.Hospital(), cfg); err != nil {
		return nil, err
	}
	if _, t.classP, err = newRegistry(dtds.Hospital(), cfg); err != nil {
		return nil, err
	}
	regA, _, err := newRegistry(dtds.Hospital(), cfg)
	if err != nil {
		return nil, err
	}
	t.handlerA = serve.New(regA, doc, serve.Config{}).Handler()
	regB, classB, err := newRegistry(dtds.Hospital(), cfg)
	if err != nil {
		return nil, err
	}
	if t.b, err = listen(doc, regB, classB, o.wrap); err != nil {
		return nil, err
	}
	defer t.b.close()
	t.cl = newClient()
	defer t.cl.close()

	src, err := w.source(orc, o.seed)
	if err != nil {
		return nil, err
	}
	var warm tally
	for i := 0; i < w.prefix; i++ {
		t.warm(&warm, src.next())
	}
	all.add(warm)

	before, err := t.b.state()
	if err != nil {
		return nil, err
	}
	t.tr = &tracer{t0: time.Now()}
	gc0 := readGC()
	start := time.Now()
	for deadline := start.Add(o.seconds * 2 / 3); time.Now().Before(deadline); {
		if err := t.one(src.next()); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	gc1 := readGC()
	all.add(t.loop)
	after, err := t.b.state()
	if err != nil {
		return nil, err
	}

	lg := &t.lg
	metrics, closure := lg.metrics(before, after, times)
	plainRPS := float64(plain.ok) / plain.elapsed.Seconds()
	metrics["trace.overhead_ratio"] = metric{(float64(lg.requests) / elapsed.Seconds()) / plainRPS, "ratio"}
	// The untraced one-client phase also gives a wall-time trajectory of
	// the edge, recorded here because per-layer metrics carry no bound.
	lat := make([]time.Duration, len(plain.samples))
	for i, s := range plain.samples {
		lat[i] = s.lat
	}
	sortDurations(lat)
	metrics["edge.one_client_rps"] = metric{plainRPS, "1/s"}
	metrics["edge.one_client_p50_us"] = metric{us(quantile(lat, 0.5)), "us"}
	metrics["edge.one_client_p90_us"] = metric{us(quantile(lat, 0.9)), "us"}
	// Collection runs beside the layers and inside their spans (mark
	// assists), so it is no ledger row. Its cost is per traced request,
	// whose iteration also runs the request on S, P and A, and helps read
	// the derived rows.
	n := float64(max(lg.requests, 1))
	metrics["runtime.gc.busy_us_per_req"] = metric{(gc1.cpu - gc0.cpu) * 1e6 / n, "us"}
	metrics["runtime.gc.cycles_per_kreq"] = metric{(gc1.cycles - gc0.cycles) * 1000 / n, "count/kreq"}
	lg.print(o, metrics, closure, plain, elapsed)
	if err := writeSpans(o, st, t.tr.spans); err != nil {
		return nil, err
	}
	if all.firstFailure != "" {
		fmt.Fprintf(o.log, "first failure: %s\n", all.firstFailure)
	}
	ok := all.failed == 0 && closure < 1e-6
	return &result{Correct: ok, Attempted: all.attempted, Failed: all.failed, Metrics: metrics}, nil
}

// untracedOneClient builds the stack setupReps times and measures the
// untraced throughput of one client against the last one, for the
// tracing overhead. It returns the set-up times, the document and its
// oracle for the traced phase, every request it checked, and the
// measured phase.
func untracedOneClient(o options, xml []byte) ([]setupTimes, *xmltree.Document, *oracle, tally, tally, error) {
	var all, plain tally
	u, times, err := setUps(o, xml)
	if err != nil {
		return nil, nil, nil, all, plain, err
	}
	defer u.close()
	orc, err := newOracle(u.doc)
	if err != nil {
		return nil, nil, nil, all, plain, err
	}
	src, err := o.workload.source(orc, o.seed)
	if err != nil {
		return nil, nil, nil, all, plain, err
	}
	all.add(drive(u.base, src, 1, o.workload.prefix, time.Time{}))
	plain = drive(u.base, src, 1, 0, time.Now().Add(o.seconds/3))
	all.add(plain)
	return times, u.doc, orc, all, plain, nil
}

// tracedRun is the traced phase's state: the three stacks, the index
// S evaluates with, each S engine's last Stats, and what is measured.
// classP is a fourth registry whose engines take the same rewrite and
// optimize calls as S's plan-cache misses, so that S's Prepare meets
// the memos a served miss meets while P times the two phases apart.
type tracedRun struct {
	w         *workload
	doc       *xmltree.Document
	idx       *xpath.Index
	classS    *policy.Class
	classP    *policy.Class
	handlerA  http.Handler
	b         *stack
	cl        *client
	prevStats map[*core.Engine]core.Stats

	tr   *tracer
	lg   ledger
	loop tally
}

// warm sends one untimed request to S, P, A and B, checking S's and
// B's answers.
func (t *tracedRun) warm(tl *tally, r *request) {
	ctx, cancel := withServeDeadline()
	defer cancel()
	params := map[string]string{"wardNo": r.ward}
	e, err := t.classS.Engine(params)
	if err == nil {
		err = t.probe(params, r.text)
	}
	if err == nil {
		var nodes []*xmltree.Node
		nodes, err = e.QueryStringCtx(ctx, t.doc, r.text)
		if err == nil && !r.want.sameNodes(nodes) {
			err = fmt.Errorf("layer-by-layer answer differs from the oracle")
		}
	}
	if err != nil {
		tl.attempted++
		tl.fail(fmt.Sprintf("%s (ward %s): %v", r.text, r.ward, err))
		return
	}
	t.handlerA.ServeHTTP(&discardWriter{}, mustRequest(r.path))
	status, err := t.cl.get(t.b.base + r.path)
	tl.check(r, status, err, t.cl.buf.Bytes())
}

// probe rewrites and optimizes a query on P's engine for the binding.
func (t *tracedRun) probe(params map[string]string, text string) error {
	e, err := t.classP.Engine(params)
	if err != nil {
		return err
	}
	p, err := xpath.Parse(text)
	if err != nil {
		return err
	}
	pt, err := e.Rewrite(p, 0)
	if err != nil {
		return err
	}
	e.Optimize(pt)
	return nil
}

func mustRequest(path string) *http.Request {
	r, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// evalDirect runs the evaluator the engine would pick with
// Config.Indexed on: the label index for plans whose optimized or source
// query has a descendant step, over documents of at least
// core.DefaultIndexThreshold nodes; the walk otherwise. Both are the
// counted variants the server uses.
func evalDirect(ctx context.Context, prep *core.Prepared, doc *xmltree.Document, idx *xpath.Index) ([]*xmltree.Node, uint64, error) {
	if doc.Size() >= core.DefaultIndexThreshold && (xpath.HasDescend(prep.Optimized) || xpath.HasDescend(prep.Source)) {
		return xpath.EvalIndexedCtxCounted(ctx, prep.Optimized, idx)
	}
	return xpath.EvalDocCtxCounted(ctx, prep.Optimized, doc)
}

// one sends a request through S layer by layer, through A's handler and
// over loopback to B, and adds it to the ledger. A wrong answer counts
// as a failure; an error from a layer stops the run.
func (t *tracedRun) one(r *request) error {
	tr, lg := t.tr, &t.lg
	tr.begin(lg.requests)
	defer tr.end()
	ctx, cancel := withServeDeadline()
	defer cancel()
	var self, allocs [numLayers]float64
	charge := func(l int, name string, c call, charged bool) {
		tr.keep(name, c, charged)
		if charged {
			self[l] += float64(c.d())
			allocs[l] += float64(c.allocs)
		}
	}
	failed := func(format string, args ...any) error {
		t.loop.attempted++
		t.loop.fail(fmt.Sprintf("%s (ward %s): ", r.text, r.ward) + fmt.Sprintf(format, args...))
		return nil
	}

	var p xpath.Path
	var err error
	charge(lParse, "xpath.Parse", tr.measure(func() { p, err = xpath.Parse(r.text) }), true)
	if err != nil {
		return err
	}

	params := map[string]string{"wardNo": r.ward}
	ecs := t.classS.EngineCacheStats()
	var e *core.Engine
	charge(lEngine, "Class.EngineCtx", tr.measure(func() { e, err = t.classS.EngineCtx(ctx, params) }), true)
	if err != nil {
		return err
	}
	ecs2 := t.classS.EngineCacheStats()
	prev, seen := t.prevStats[e]
	if !seen {
		prev = e.Stats()
	}

	// Rewrite and optimize are timed on P's engine for the binding. On
	// a plan-cache miss they split S's Prepare, and the plan cache's own
	// share is the rest; on a hit they are probes the request does not
	// make, and go uncharged.
	eP, err := t.classP.Engine(params)
	if err != nil {
		return err
	}
	var pt, po xpath.Path
	cRw := tr.measure(func() { pt, err = eP.Rewrite(p, 0) })
	if err != nil {
		return err
	}
	cOpt := tr.measure(func() { po = eP.Optimize(pt) })
	var prep *core.Prepared
	cPrep := tr.measure(func() { prep, err = e.Prepare(p) })
	if err != nil {
		return err
	}
	st := e.Stats()
	miss := st.PlanCache.Misses > prev.PlanCache.Misses
	charge(lRewrite, "Engine.Rewrite", cRw, miss)
	charge(lOptimize, "Engine.Optimize", cOpt, miss)
	tr.keep("Engine.Prepare", cPrep, true)
	self[lPlanCache] += float64(cPrep.d())
	allocs[lPlanCache] += float64(cPrep.allocs)
	if miss {
		self[lPlanCache] -= float64(cRw.d() + cOpt.d())
		allocs[lPlanCache] -= float64(cRw.allocs + cOpt.allocs)
	}

	var out []*xmltree.Node
	var visited uint64
	evaluate := func() { out, visited, err = evalDirect(ctx, prep, t.doc, t.idx) }
	if t.w.answerCache {
		var cached []*xmltree.Node
		cQ := tr.measure(func() { cached, err = e.QueryCtx(ctx, t.doc, p) })
		if err != nil {
			return err
		}
		if !r.want.sameNodes(cached) {
			return failed("Engine.QueryCtx answered %d nodes, the oracle %d", len(cached), len(r.want.nodes))
		}
		st2 := e.Stats()
		hit := st2.AnswerCache.Hits > st.AnswerCache.Hits || st2.AnswerCache.ContainmentHits > st.AnswerCache.ContainmentHits
		st = st2
		out = cached
		if hit {
			charge(lAnsCache, "Engine.QueryCtx", cQ, true)
		} else {
			// A miss probes the cache and then evaluates; the evaluation
			// is timed again on its own and the probe is the difference.
			tr.keep("Engine.QueryCtx", cQ, false)
			cEval := tr.measure(evaluate)
			charge(lEval, "xpath.Eval", cEval, true)
			self[lAnsCache] += float64(cQ.d() - cEval.d())
			allocs[lAnsCache] += float64(cQ.allocs) - float64(cEval.allocs)
		}
	} else {
		charge(lEval, "xpath.Eval", tr.measure(evaluate), true)
	}
	if err != nil {
		return err
	}
	t.prevStats[e] = st
	if !r.want.sameNodes(out) {
		return failed("evaluation answered %d nodes, the oracle %d", len(out), len(r.want.nodes))
	}

	var n int
	charge(lSerialize, "Node.String", tr.measure(func() {
		for _, x := range out {
			n += len(x.String())
		}
	}), true)

	hreq := mustRequest(r.path)
	dw := &discardWriter{}
	cH := tr.measure(func() { t.handlerA.ServeHTTP(dw, hreq) })
	tr.keep("Handler.ServeHTTP", cH, true)
	if dw.status != http.StatusOK {
		return failed("handler status %d", dw.status)
	}

	rtStart := time.Now()
	status, err := t.cl.get(t.b.base + r.path)
	rt := call{start: rtStart, end: time.Now()}
	tr.keep("loopback /query", rt, true)
	if !t.loop.check(r, status, err, t.cl.buf.Bytes()) {
		return nil
	}
	hStart := time.Now()
	status, err = t.cl.get(t.b.base + "/healthz")
	health := call{start: hStart, end: time.Now()}
	tr.keep("loopback /healthz", health, true)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz: status %d, %v", status, err)
	}

	// The handler runs the same pipeline on A as S ran layer by layer;
	// its self time is what remains. Loopback is a /healthz round trip;
	// whatever of the /query round trip neither explains is unattributed.
	var inner, innerAllocs float64
	for l := lParse; l <= lSerialize; l++ {
		inner += self[l]
		innerAllocs += allocs[l]
	}
	self[lHandler] = float64(cH.d()) - inner
	allocs[lHandler] = float64(cH.allocs) - innerAllocs
	self[lLoopback] = float64(health.d())
	self[lUnattributed] = float64(rt.d()) - float64(cH.d()) - float64(health.d())
	for l := range self {
		lg.self[l] += self[l]
		lg.allocs[l] += allocs[l]
	}
	lg.roundTrip += float64(rt.d())
	lg.requests++
	lg.astNodes += float64(xpath.Size(p))
	lg.engineHits += ecs2.Hits - ecs.Hits
	lg.engineLookups += ecs2.Hits - ecs.Hits + ecs2.Misses - ecs.Misses
	if miss {
		lg.planMisses++
		lg.rewriteOut += float64(xpath.Size(pt))
		lg.sizeRatio += float64(xpath.Size(po)) / float64(xpath.Size(pt))
		lg.rulesFired += st.OptimizeRules - prev.OptimizeRules
	}
	lg.visited += float64(visited)
	lg.results += float64(len(out))
	lg.serBytes += float64(n)
	return nil
}

// metrics turns the ledger into the per-layer metrics. closure is the
// relative gap between the summed layer self times and the traced
// per-request time; it is zero up to rounding by construction.
func (lg *ledger) metrics(before, after state, times []setupTimes) (map[string]metric, float64) {
	n := float64(max(lg.requests, 1))
	perReq := func(ns float64) float64 { return ns / n / 1e3 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	misses := float64(lg.planMisses)
	planLookups := float64(after.PlanHits - before.PlanHits + after.PlanMisses - before.PlanMisses)
	ansLookups := float64(after.AnswerEqual - before.AnswerEqual + after.AnswerContain - before.AnswerContain + after.AnswerMisses - before.AnswerMisses)
	m := map[string]metric{
		"xmltree.load.parse_ms":             {ms(medianOf(times, func(t setupTimes) time.Duration { return t.parse })), "ms"},
		"xmltree.load.validate_ms":          {ms(medianOf(times, func(t setupTimes) time.Duration { return t.validate })), "ms"},
		"policy.engine.derive_us":           {us(medianOf(times, func(t setupTimes) time.Duration { return t.derive })) / float64(len(wards)), "us"},
		"policy.engine.hit_ratio":           {ratio(float64(lg.engineHits), float64(lg.engineLookups)), "ratio"},
		"policy.engine.engines":             {float64(after.Engines), "count"},
		"xpath.parse.us_per_req":            {perReq(lg.self[lParse]), "us"},
		"xpath.parse.ast_nodes":             {lg.astNodes / n, "count"},
		"core.plancache.us_per_req":         {perReq(lg.self[lPlanCache]), "us"},
		"core.plancache.hit_ratio":          {ratio(float64(after.PlanHits-before.PlanHits), planLookups), "ratio"},
		"core.plancache.evictions_per_kreq": {float64(after.PlanEvictions-before.PlanEvictions) * 1000 / n, "count/kreq"},
		"core.plancache.entries":            {float64(after.PlanEntries), "count"},
		"rewrite.us_per_miss":               {ratio(lg.self[lRewrite]/1e3, misses), "us"},
		"rewrite.out_nodes":                 {ratio(lg.rewriteOut, misses), "count"},
		"rewrite.memo_cells":                {float64(after.MemoCells), "count"},
		"rewrite.memo_cells_per_miss":       {ratio(float64(after.MemoCells), float64(after.PlanMisses)), "count"},
		"optimize.us_per_miss":              {ratio(lg.self[lOptimize]/1e3, misses), "us"},
		"optimize.size_ratio":               {ratio(lg.sizeRatio, misses), "ratio"},
		"optimize.rules_fired":              {ratio(float64(lg.rulesFired), misses), "count"},
		"anscache.us_per_req":               {perReq(lg.self[lAnsCache]), "us"},
		"anscache.equal_hit_ratio":          {ratio(float64(after.AnswerEqual-before.AnswerEqual), ansLookups), "ratio"},
		"anscache.containment_hit_ratio":    {ratio(float64(after.AnswerContain-before.AnswerContain), ansLookups), "ratio"},
		"anscache.miss_ratio":               {ratio(float64(after.AnswerMisses-before.AnswerMisses), ansLookups), "ratio"},
		"anscache.evictions_per_kreq":       {float64(after.AnswerEvicted-before.AnswerEvicted) * 1000 / n, "count/kreq"},
		"anscache.entries":                  {float64(after.AnswerEntries), "count"},
		"xpath.eval.us_per_req":             {perReq(lg.self[lEval]), "us"},
		"xpath.eval.nodes_visited_per_req":  {lg.visited / n, "count"},
		"xpath.eval.results_per_req":        {lg.results / n, "count"},
		"xpath.eval.indexed_share":          {ratio(float64(after.IndexedEvals-before.IndexedEvals), float64(after.Evals-before.Evals)), "ratio"},
		"xmltree.serialize.us_per_req":      {perReq(lg.self[lSerialize]), "us"},
		"xmltree.serialize.bytes_per_req":   {lg.serBytes / n, "B"},
		"xmltree.serialize.allocs_per_req":  {lg.allocs[lSerialize] / n, "count"},
		"serve.handler.self_us_per_req":     {perReq(lg.self[lHandler]), "us"},
		"serve.handler.allocs_per_req":      {lg.allocs[lHandler] / n, "count"},
		"net.loopback.self_us_per_req":      {perReq(lg.self[lLoopback]), "us"},
		"unattributed.us_per_req":           {perReq(lg.self[lUnattributed]), "us"},
		"ledger.traced_us_per_req":          {perReq(lg.roundTrip), "us"},
		"ledger.requests":                   {float64(lg.requests), "count"},
	}
	sum := 0.0
	for _, s := range lg.self {
		sum += s
	}
	closure := 0.0
	if lg.roundTrip > 0 {
		closure = math.Abs(sum-lg.roundTrip) / lg.roundTrip
	}
	return m, closure
}

type gcSample struct{ cpu, cycles float64 }

// readGC samples the collector's cumulative busy CPU time (assists,
// dedicated mark workers and pauses; idle-time marking uses CPU nothing
// else wanted) and its cycle count.
func readGC() gcSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
		{Name: "/cpu/classes/gc/mark/dedicated:cpu-seconds"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var g gcSample
	for _, s := range samples[:3] {
		if s.Value.Kind() == metrics.KindFloat64 {
			g.cpu += s.Value.Float64()
		}
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		g.cycles = float64(samples[3].Value.Uint64())
	}
	return g
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (lg *ledger) print(o options, metrics map[string]metric, closure float64, plain tally, elapsed time.Duration) {
	n := float64(max(lg.requests, 1))
	total := lg.roundTrip / n / 1e3
	fmt.Fprintf(o.log, "workload %s: traced %d requests in %.1f s with one client; untraced with one client: %d requests in %.1f s\n",
		o.workload.name, lg.requests, elapsed.Seconds(), plain.attempted, plain.elapsed.Seconds())
	fmt.Fprintf(o.log, "ledger %-20s %12s %8s %12s\n", "layer", "self us/req", "share", "allocs/req")
	for l := 0; l < numLayers; l++ {
		self := lg.self[l] / n / 1e3
		note := ""
		if derivedNote[l] != "" {
			note = "  (" + derivedNote[l] + ")"
		}
		fmt.Fprintf(o.log, "ledger %-20s %12.2f %7.1f%% %12.1f%s\n", layerNames[l], self, 100*self/total, lg.allocs[l]/n, note)
	}
	fmt.Fprintf(o.log, "ledger %-20s %12.2f  (mean /query round trip; closure error %.2g)\n", "traced per request", total, closure)
	printMetrics(o.log, metrics)
}

// writeSpans dumps the kept spans as JSON lines, after a stamp line.
func writeSpans(o options, st stamp, spans []span) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spansDir, "spans-"+o.workload.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(st)
	for _, s := range spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "spans %d written to %s\n", len(spans), path)
	return nil
}
