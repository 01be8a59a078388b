package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/xmltree"
)

// TestEvalModeAccounting runs a mixed batch — indexed queries on a
// 10,254-node document, sequential ones on a 305-node document and on
// child-axis-only plans, answer-cache hits everywhere, and the large
// document once uncompacted — and checks at quiescence that every
// completed pipeline lands in exactly one eval mode and one set
// representation, with no parallel mode anywhere.
func TestEvalModeAccounting(t *testing.T) {
	spec := dtds.NurseSpec()
	large := dtds.GenerateHospital(1, 48)
	docs := map[string]*xmltree.Document{
		"large":       large,
		"small":       dtds.GenerateHospital(7, 6),
		"uncompacted": xmltree.NewDocument(large.Root.Clone()),
	}
	queries := []string{"//dept//treatment//bill", "//patient/name", "dept/staffInfo/staff/*", "//patient[.//medication]/name"}
	for name, doc := range docs {
		reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{Indexed: true, AnswerCache: true})
		if _, err := reg.DefineSpec("nurse", spec); err != nil {
			t.Fatalf("DefineSpec: %v", err)
		}
		s := New(reg, doc, Config{})
		h := s.Handler()
		for round := 0; round < 2; round++ {
			for _, q := range queries {
				if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
					t.Fatalf("%s %q: status %d", name, q, w.Code)
				}
			}
		}
		p := s.Stats().Server.Pipeline
		if p.Count != uint64(2*len(queries)) {
			t.Fatalf("%s: pipeline count = %d, want %d", name, p.Count, 2*len(queries))
		}
		if p.SequentialEvals+p.IndexedEvals+p.CachedEvals != p.Count {
			t.Errorf("%s: modes %d seq + %d idx + %d cached != %d", name, p.SequentialEvals, p.IndexedEvals, p.CachedEvals, p.Count)
		}
		if p.BitsetEvals+p.SliceEvals != p.Count {
			t.Errorf("%s: reprs %d bitset + %d slice != %d", name, p.BitsetEvals, p.SliceEvals, p.Count)
		}
		if p.ParallelEvals != 0 {
			t.Errorf("%s: ParallelEvals = %d, want 0", name, p.ParallelEvals)
		}
		if p.CachedEvals < uint64(len(queries)) {
			t.Errorf("%s: %d cached evals, want every repeat (%d) answered from the cache", name, p.CachedEvals, len(queries))
		}
		wantIndexed := name == "large"
		if (p.IndexedEvals > 0) != wantIndexed || p.SequentialEvals == 0 {
			t.Errorf("%s: %d indexed / %d sequential evals, want indexed only on the large compacted document", name, p.IndexedEvals, p.SequentialEvals)
		}
		if wantRepr := doc.Compacted(); (p.SliceEvals == 0) != wantRepr {
			t.Errorf("%s: %d bitset / %d slice evals on a document with Compacted() = %t", name, p.BitsetEvals, p.SliceEvals, wantRepr)
		}
		if m := get(t, h, "/metricsz").Body.String(); strings.Contains(m, `mode="parallel"`) {
			t.Errorf("%s: /metricsz still exports a parallel eval series", name)
		}
	}
}

// metricValue extracts one sample value from a Prometheus exposition
// (the full sample name including any label set, e.g.
// `sv_phase_duration_seconds_count{phase="rewrite"}`).
func metricValue(t *testing.T, exposition, sample string) uint64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " ([0-9]+)$")
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, exposition)
	}
	var v uint64
	fmt.Sscanf(m[1], "%d", &v)
	return v
}

// TestMetricszExposition: /metricsz passes the independent format
// validator, and the pipeline invariant holds — every phase histogram's
// count equals sv_pipeline_total equals the OK-response count, with the
// plan-cache split summing to the same total.
func TestMetricszExposition(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	const n = 5
	for i := 0; i < n; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	// A failed request must not contribute a pipeline observation.
	get(t, h, "/query?class=nurse")

	w := get(t, h, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("metricsz status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metricsz fails validation: %v\n%s", err, body)
	}

	if got := metricValue(t, body, "sv_requests_total"); got != n+1 {
		t.Errorf("sv_requests_total = %d, want %d", got, n+1)
	}
	if got := metricValue(t, body, `sv_responses_total{code="200"}`); got != n {
		t.Errorf("ok responses = %d, want %d", got, n)
	}
	pipeline := metricValue(t, body, "sv_pipeline_total")
	if pipeline != n {
		t.Errorf("sv_pipeline_total = %d, want %d", pipeline, n)
	}
	for _, phase := range []string{"rewrite", "optimize", "eval"} {
		sample := fmt.Sprintf(`sv_phase_duration_seconds_count{phase=%q}`, phase)
		if got := metricValue(t, body, sample); got != pipeline {
			t.Errorf("%s = %d, want pipeline count %d", sample, got, pipeline)
		}
	}
	hits := metricValue(t, body, `sv_plan_cache_total{result="hit"}`)
	misses := metricValue(t, body, `sv_plan_cache_total{result="miss"}`)
	if hits+misses != pipeline {
		t.Errorf("plan cache hit+miss = %d+%d, want pipeline count %d", hits, misses, pipeline)
	}
	if misses != 1 {
		t.Errorf("plan-cache misses = %d, want 1 (one distinct query)", misses)
	}
	// The test document comes from xmlgen, so it is compacted and every
	// sequential eval runs on the ordinal bitset representation.
	if got := metricValue(t, body, `sv_eval_total{mode="sequential",repr="bitset"}`); got != pipeline {
		t.Errorf("sequential bitset evals = %d, want %d", got, pipeline)
	}
	if got := metricValue(t, body, `sv_eval_total{mode="sequential",repr="slice"}`); got != 0 {
		t.Errorf("sequential slice evals = %d, want 0 on a compacted document", got)
	}
	if got := metricValue(t, body, "sv_request_duration_seconds_count"); got != n {
		t.Errorf("request histogram count = %d, want %d (admitted requests only)", got, n)
	}
}

// TestStatszPipelineSection: the JSON twin of the exposition reports the
// same always-on pipeline accounting.
func TestStatszPipelineSection(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//staff/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	p := s.Stats().Server.Pipeline
	if p.Count != 3 {
		t.Fatalf("pipeline count = %d, want 3", p.Count)
	}
	if p.PlanCacheHits != 2 || p.PlanCacheMisses != 1 {
		t.Errorf("plan cache = %d hits / %d misses, want 2/1", p.PlanCacheHits, p.PlanCacheMisses)
	}
	if p.SequentialEvals != 3 || p.ParallelEvals != 0 {
		t.Errorf("eval modes = %d seq / %d par", p.SequentialEvals, p.ParallelEvals)
	}
	if p.BitsetEvals != 3 || p.SliceEvals != 0 {
		t.Errorf("eval reprs = %d bitset / %d slice, want 3/0 on a compacted document", p.BitsetEvals, p.SliceEvals)
	}
	for _, phase := range []string{"rewrite", "optimize", "eval"} {
		lat, ok := p.Phases[phase]
		if !ok || lat.Count != p.Count {
			t.Errorf("phase %q: %+v (want count %d)", phase, lat, p.Count)
		}
	}
	if p.Phases["eval"].SumMicros == 0 {
		t.Error("eval phase sum is zero across 3 queries")
	}
}

// TestExplainzEndpoint: the JSON document carries the engine explain
// (fresh nonzero phase timings, intermediate queries) plus the span
// tree of this exact request; malformed requests map to 400.
func TestExplainzEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	// Warm the plan cache first: the explain must still re-time phases.
	get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))

	w := get(t, h, "/explainz?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if w.Code != http.StatusOK {
		t.Fatalf("explainz status = %d, body %q", w.Code, w.Body.String())
	}
	var resp explainzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("explainz does not decode: %v\n%s", err, w.Body.String())
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explainz missing explain section")
	}
	if ex.RewriteNs <= 0 || ex.OptimizeNs <= 0 || ex.EvalNs <= 0 {
		t.Errorf("phase durations not all positive: %+v", ex)
	}
	if ex.Rewritten == "" || ex.Optimized == "" || ex.EvalMode == "" {
		t.Errorf("explain fields missing: %+v", ex)
	}
	if !ex.PlanWasCached {
		t.Error("explain after a warm /query does not report the cached plan")
	}
	if resp.TotalNs <= 0 || resp.RequestID == 0 {
		t.Errorf("envelope: total_ns=%d request_id=%d", resp.TotalNs, resp.RequestID)
	}
	if resp.Trace.Root.Name != "explain" || resp.Trace.Root.DurationNs <= 0 {
		t.Errorf("trace root: %+v", resp.Trace.Root)
	}
	// The pipeline spans hang off the explain root.
	var names []string
	for _, c := range resp.Trace.Root.Children {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"rewrite", "optimize"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace children %v missing %q span", names, want)
		}
	}

	if w := get(t, h, "/explainz?class=nurse"); w.Code != http.StatusBadRequest {
		t.Errorf("missing q: status = %d, want 400", w.Code)
	}
	if w := get(t, h, "/explainz?class=ghost&q=//name"); w.Code != http.StatusBadRequest {
		t.Errorf("unknown class: status = %d, want 400", w.Code)
	}
	// The missing-q request fails validation before admission; the ghost
	// class is admitted and fails in the registry — both 400, but only
	// the admitted one counts as an explain.
	if st := s.Stats().Server; st.Explains != 2 {
		t.Errorf("Explains = %d, want 2 (the admitted explains)", st.Explains)
	}
	// /explainz must not perturb the /query pipeline accounting.
	if p := s.Stats().Server.Pipeline; p.Count != 1 {
		t.Errorf("pipeline count = %d after explain, want 1", p.Count)
	}
}

// TestHealthzDrainTransition: /healthz answers 200 until BeginDrain,
// 503 after — the signal load balancers use to stop routing here.
func TestHealthzDrainTransition(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d", w.Code)
	}
	if s.Draining() {
		t.Fatal("Draining() true before BeginDrain")
	}
	s.BeginDrain()
	w := get(t, h, "/healthz")
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("post-drain healthz = %d %q, want 503 draining", w.Code, w.Body.String())
	}
	if !s.Stats().Server.Draining {
		t.Error("stats do not report draining")
	}
	// Queries already in the building keep working during the drain —
	// only the health signal flips.
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")); w.Code != http.StatusOK {
		t.Errorf("query during drain = %d", w.Code)
	}
	s.BeginDrain() // idempotent
	if w := get(t, h, "/healthz"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after second BeginDrain = %d", w.Code)
	}
}

// TestStatsUnderConcurrentLoad hammers the server from many goroutines
// while snapshotting /statsz and /metricsz mid-flight: snapshots must
// stay internally consistent (histogram sums to count, responses never
// exceed requests) and totals must be exact once the load stops. The
// race detector covers the memory model; this covers the accounting.
func TestStatsUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{TraceSampleEvery: 3}, 4)
	h := s.Handler()
	targets := []string{
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name"),
		"/query?class=nurse&param=wardNo=2&q=" + url.QueryEscape("//dept//bill"),
		"/query?class=nurse&param=wardNo=3&q=" + url.QueryEscape("//staff/name"),
		"/query?class=nurse", // 400, never admitted
	}
	const workers, perWorker = 8, 30
	var sent atomic.Uint64
	stop := make(chan struct{})
	var snapErrs atomic.Uint64

	// Snapshot reader racing the writers.
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats().Server
			var sum uint64
			for _, n := range st.Latency.Buckets {
				sum += n
			}
			if sum != st.Latency.Count {
				snapErrs.Add(1)
				t.Errorf("mid-flight histogram sums to %d, count %d", sum, st.Latency.Count)
			}
			if st.OK+st.BadRequests+st.Timeouts+st.InternalErrors+st.Rejected+st.ClientCancels > st.Requests {
				snapErrs.Add(1)
				t.Errorf("mid-flight responses exceed requests: %+v", st)
			}
			for phase, lat := range st.Pipeline.Phases {
				// Stats reads phase digests before the pipeline counter, so
				// mid-flight a phase count may trail but never lead it.
				if lat.Count > st.Pipeline.Count {
					snapErrs.Add(1)
					t.Errorf("mid-flight phase %q count %d exceeds pipeline %d", phase, lat.Count, st.Pipeline.Count)
				}
				// Phases snapshot one digest at a time, so only assert
				// within one phase's own snapshot.
				var psum uint64
				for _, n := range lat.Buckets {
					psum += n
				}
				if psum != lat.Count {
					snapErrs.Add(1)
					t.Errorf("mid-flight phase %q buckets sum %d != count %d", phase, psum, lat.Count)
				}
			}
			if w := get(t, h, "/metricsz"); w.Code == http.StatusOK {
				if err := obs.ValidateExposition(strings.NewReader(w.Body.String())); err != nil {
					snapErrs.Add(1)
					t.Errorf("mid-flight /metricsz invalid: %v", err)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sent.Add(1)
				get(t, h, targets[(g+i)%len(targets)])
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	st := s.Stats().Server
	if st.Requests != sent.Load() {
		t.Errorf("requests = %d, sent %d", st.Requests, sent.Load())
	}
	if got := st.OK + st.BadRequests + st.Timeouts + st.InternalErrors + st.Rejected + st.ClientCancels; got != st.Requests {
		t.Errorf("response classes sum to %d, requests %d", got, st.Requests)
	}
	if st.OK != st.Pipeline.Count {
		t.Errorf("pipeline count %d != ok %d", st.Pipeline.Count, st.OK)
	}
	if st.Latency.Count != st.OK+st.Timeouts+st.InternalErrors+st.ClientCancels {
		t.Errorf("latency count %d, admitted %d", st.Latency.Count, st.OK+st.Timeouts)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after load", st.InFlight)
	}
	if started, kept := s.Tracer().Stats(); started != kept || started == 0 {
		t.Errorf("tracer stats: %d started, %d kept", started, kept)
	}
}

// TestSlowQueryLog: queries above the threshold are logged through the
// injected sink with their per-phase breakdown; fast queries are not.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// Threshold 1ns: everything is slow.
	s := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, Logf: logf}, 4)
	w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if w.Code != http.StatusOK {
		t.Fatalf("query status = %d", w.Code)
	}
	mu.Lock()
	got := append([]string(nil), lines...)
	mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("slow-query lines = %d, want 1: %q", len(got), got)
	}
	for _, want := range []string{"slow query", "class=nurse", "rewrite=", "optimize=", "eval=", "mode=sequential", "status=200"} {
		if !strings.Contains(got[0], want) {
			t.Errorf("slow-query line missing %q: %s", want, got[0])
		}
	}
	if s.Stats().Server.SlowQueries != 1 {
		t.Errorf("SlowQueries = %d, want 1", s.Stats().Server.SlowQueries)
	}

	// Negative threshold disables the log entirely.
	lines = nil
	s2 := newTestServer(t, Config{SlowQueryThreshold: -1, Logf: logf}, 4)
	get(t, s2.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	mu.Lock()
	quietLines := len(lines)
	mu.Unlock()
	if quietLines != 0 {
		t.Errorf("disabled slow-query log wrote %d lines", quietLines)
	}
	if s2.Stats().Server.SlowQueries != 0 {
		t.Errorf("disabled threshold counted %d slow queries", s2.Stats().Server.SlowQueries)
	}
}

// TestTracezRing: with sampling=1 every request is traced; /tracez
// returns them newest first with request attributes, bounded by the
// configured ring size.
func TestTracezRing(t *testing.T) {
	s := newTestServer(t, Config{TraceSampleEvery: 1, TraceRingSize: 3}, 4)
	h := s.Handler()
	const n = 5
	for i := 0; i < n; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	w := get(t, h, "/tracez")
	if w.Code != http.StatusOK {
		t.Fatalf("tracez status = %d", w.Code)
	}
	var resp struct {
		SampleEvery int                 `json:"sample_every"`
		Started     uint64              `json:"started"`
		Kept        uint64              `json:"kept"`
		Traces      []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("tracez does not decode: %v\n%s", err, w.Body.String())
	}
	if resp.SampleEvery != 1 || resp.Started != n || resp.Kept != n {
		t.Errorf("tracez header: %+v", resp)
	}
	if len(resp.Traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(resp.Traces))
	}
	for i := 1; i < len(resp.Traces); i++ {
		if resp.Traces[i-1].ID <= resp.Traces[i].ID {
			t.Errorf("traces not newest-first: %d then %d", resp.Traces[i-1].ID, resp.Traces[i].ID)
		}
	}
	root := resp.Traces[0].Root
	if root.Name != "request" || root.DurationNs <= 0 {
		t.Errorf("trace root: %+v", root)
	}
	keys := map[string]bool{}
	for _, a := range root.Attrs {
		keys[a.Key] = true
	}
	for _, want := range []string{"request_id", "class", "query", "status"} {
		if !keys[want] {
			t.Errorf("trace root missing attr %q (have %v)", want, root.Attrs)
		}
	}
	if w := get(t, h, "/tracez?n=1"); w.Code == http.StatusOK {
		var one struct {
			Traces []obs.TraceSnapshot `json:"traces"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil || len(one.Traces) != 1 {
			t.Errorf("tracez?n=1: err=%v traces=%d", err, len(one.Traces))
		}
	}
}

// TestPprofEndpoint: the profiler index is wired into the handler.
func TestPprofEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	w := get(t, s.Handler(), "/debug/pprof/")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "goroutine") {
		t.Errorf("pprof index: %d %.80q", w.Code, w.Body.String())
	}
}
