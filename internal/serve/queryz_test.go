package serve

// /queryz and wide-event-log suite: the fingerprint registry's
// accounting invariant against sv_pipeline_total (sequential and under
// concurrent load), sort/limit parameter handling, query-text
// truncation in both log sinks, per-class answer-cache splitting in
// /statsz, and the structured event log end to end.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/eventlog"
	"repro/internal/policy"
	"repro/internal/xmlgen"
)

// newAnscacheTestServer is newTestServer with the semantic answer cache
// enabled on every derived engine.
func newAnscacheTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{AnswerCache: true})
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatalf("DefineSpec: %v", err)
	}
	doc := xmlgen.Generate(spec.D, xmlgen.Config{
		Seed:      7,
		MinRepeat: 2,
		MaxRepeat: 4,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", r.Intn(4))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
	return New(reg, doc, cfg)
}

func getQueryz(t *testing.T, h http.Handler, target string) QueryzResponse {
	t.Helper()
	w := get(t, h, target)
	if w.Code != http.StatusOK {
		t.Fatalf("%s status = %d: %s", target, w.Code, w.Body.String())
	}
	var qz QueryzResponse
	if err := json.Unmarshal(w.Body.Bytes(), &qz); err != nil {
		t.Fatalf("decode %s: %v", target, err)
	}
	return qz
}

// TestQueryzAccounting: after a quiescent mixed workload the /queryz
// rows attribute every answered query — the Count sum over all rows
// equals the registry's observation count equals sv_pipeline_total —
// and failed requests contribute nothing.
func TestQueryzAccounting(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	queries := []string{"//patient/name", "//patient", "//wardNo"}
	for i, q := range queries {
		for j := 0; j <= i; j++ { // distinct counts per fingerprint
			if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
				t.Fatalf("query %q: status %d", q, w.Code)
			}
		}
	}
	get(t, h, "/query?class=nurse")                            // 400: no q
	get(t, h, "/query?class=nurse&param=wardNo=1&q=%2F%2F%5B") // 400: parse error

	qz := getQueryz(t, h, "/queryz?n=0")
	if len(qz.Top) != len(queries) {
		t.Fatalf("tracked %d fingerprints, want %d:\n%+v", len(qz.Top), len(queries), qz.Top)
	}
	var sum uint64
	for _, fs := range qz.Top {
		sum += fs.Count
		if fs.Fingerprint == "" || fs.Class != "nurse" || fs.Plan == "" {
			t.Errorf("row missing identity: %+v", fs)
		}
		if fs.Total.Count != fs.Count {
			t.Errorf("fingerprint %s: digest count %d != count %d", fs.Fingerprint, fs.Total.Count, fs.Count)
		}
	}
	body := get(t, h, "/metricsz").Body.String()
	pipeline := metricValue(t, body, "sv_pipeline_total")
	if sum != pipeline || qz.Registry.Observations != pipeline {
		t.Errorf("count sum = %d, observations = %d, sv_pipeline_total = %d; want all equal",
			sum, qz.Registry.Observations, pipeline)
	}
	if got := metricValue(t, body, "sv_qstats_observations_total"); got != pipeline {
		t.Errorf("sv_qstats_observations_total = %d, want %d", got, pipeline)
	}
	if got := metricValue(t, body, "sv_qstats_fingerprints"); got != uint64(len(queries)) {
		t.Errorf("sv_qstats_fingerprints = %d, want %d", got, len(queries))
	}
	if got := metricValue(t, body, "sv_qstats_capacity"); got != uint64(s.QueryStats().Capacity()) {
		t.Errorf("sv_qstats_capacity = %d, want %d", got, s.QueryStats().Capacity())
	}

	// Sort by count puts the most-repeated query first; ?n bounds rows.
	byCount := getQueryz(t, h, "/queryz?sort=count&n=1")
	if len(byCount.Top) != 1 || byCount.Top[0].Count != uint64(len(queries)) {
		t.Errorf("sort=count&n=1 returned %+v", byCount.Top)
	}
	if !strings.Contains(byCount.Top[0].Query, "//wardNo") {
		t.Errorf("hottest fingerprint is %q, want the most-repeated query", byCount.Top[0].Query)
	}
	if w := get(t, h, "/queryz?sort=bogus"); w.Code != http.StatusBadRequest {
		t.Errorf("bad sort key answered %d, want 400", w.Code)
	}
	if w := get(t, h, "/queryz?n=x"); w.Code != http.StatusBadRequest {
		t.Errorf("bad n answered %d, want 400", w.Code)
	}
}

// TestQueryzConcurrentInvariant hammers /queryz while queries are in
// flight: at every intermediate read the Count sum over all rows must
// not exceed sv_pipeline_total read afterwards (observations land
// strictly after the pipeline counter increments). Run under -race this
// also exercises the registry's locking against the HTTP readers.
func TestQueryzConcurrentInvariant(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	queries := []string{"//patient/name", "//patient", "//wardNo", "//name", "//bill"}

	var writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q))
			}
		}(g)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Read order matters: /queryz first, then the pipeline counter,
			// so every observation in the sum has its cause in the counter.
			qz := getQueryz(t, h, "/queryz?n=0")
			var sum uint64
			for _, fs := range qz.Top {
				sum += fs.Count
			}
			pipeline := metricValue(t, get(t, h, "/metricsz").Body.String(), "sv_pipeline_total")
			if sum > pipeline {
				t.Errorf("mid-flight count sum %d exceeds sv_pipeline_total %d", sum, pipeline)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	qz := getQueryz(t, h, "/queryz?n=0")
	var sum uint64
	for _, fs := range qz.Top {
		sum += fs.Count
	}
	if pipeline := metricValue(t, get(t, h, "/metricsz").Body.String(), "sv_pipeline_total"); sum != pipeline {
		t.Errorf("quiescent count sum = %d, sv_pipeline_total = %d", sum, pipeline)
	}
}

// TestSlowQueryTruncation pins the log-bloat bound: a pathologically
// long query yields a slow-query line whose length is bounded, with a
// truncation marker, on the plain-log path.
func TestSlowQueryTruncation(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, Logf: logf}, 4)
	h := s.Handler()
	// A valid query padded far past the log bound with a fat predicate.
	long := "//patient[name = \"" + strings.Repeat("x", 100_000) + "\"]/name"
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(long)); w.Code != http.StatusOK {
		t.Fatalf("long query status = %d: %s", w.Code, w.Body.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no slow-query line logged at a 1ns threshold")
	}
	line := lines[len(lines)-1]
	if len(line) > maxLoggedQueryBytes+512 {
		t.Errorf("slow-query line is %d bytes — truncation failed", len(line))
	}
	if !strings.Contains(line, "...[truncated]") {
		t.Errorf("slow-query line lacks the truncation marker: %q", line)
	}
}

// TestEventLog drives the structured log end to end: sampled, slow, and
// error events land as parseable JSONL with bounded query text, correct
// kinds, and fingerprints that join the /queryz rows.
func TestEventLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	ew, err := eventlog.New(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		SlowQueryThreshold:  -1, // no slow events; kinds are sampled/error only
		EventLog:            ew,
		EventLogSampleEvery: 1,
	}, 4)
	h := s.Handler()
	const q = "//patient/name"
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
			t.Fatalf("query %d status = %d", i, w.Code)
		}
	}
	long := "//patient[name = \"" + strings.Repeat("y", 100_000) + "\"" // unterminated: parse error
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(long)); w.Code != http.StatusBadRequest {
		t.Fatalf("broken query status = %d, want 400", w.Code)
	}
	qz := getQueryz(t, h, "/queryz?n=0")
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []queryEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev queryEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		for _, field := range []string{`"parse_us":`, `"rewrite_us":`, `"optimize_us":`, `"eval_us":`} {
			if !strings.Contains(sc.Text(), field) {
				t.Errorf("event line lacks %s: %.200s", field, sc.Text())
			}
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4 (3 sampled + 1 error): %+v", len(events), events)
	}
	for i, ev := range events[:3] {
		if ev.Kind != "sampled" || ev.Status != http.StatusOK {
			t.Errorf("event %d: kind=%q status=%d, want sampled/200", i, ev.Kind, ev.Status)
		}
		if ev.Class != "nurse" || ev.Query != q || ev.RequestID == 0 || ev.TimeUnixUs == 0 {
			t.Errorf("event %d missing identity: %+v", i, ev)
		}
		if ev.EvalMode == "" || ev.ResultCount == 0 {
			t.Errorf("event %d missing pipeline fields: %+v", i, ev)
		}
	}
	errEv := events[3]
	if errEv.Kind != "error" || errEv.Status != http.StatusBadRequest {
		t.Errorf("error event: kind=%q status=%d, want error/400", errEv.Kind, errEv.Status)
	}
	if len(errEv.Query) > maxLoggedQueryBytes+32 || !strings.HasSuffix(errEv.Query, "...[truncated]") {
		t.Errorf("error event query not truncated: %d bytes", len(errEv.Query))
	}

	// The sampled events' fingerprint joins the /queryz row for q.
	if len(qz.Top) != 1 {
		t.Fatalf("queryz rows = %d, want 1", len(qz.Top))
	}
	if events[0].Fingerprint != qz.Top[0].Fingerprint {
		t.Errorf("event fingerprint %s != /queryz fingerprint %s", events[0].Fingerprint, qz.Top[0].Fingerprint)
	}
	ev, rot := ew.Stats()
	if ev != 4 || rot != 0 {
		t.Errorf("event log stats = %d events %d rotations, want 4/0", ev, rot)
	}
}

// TestStatszPerClassAnswerCache: /statsz splits answer-cache outcomes
// per class (summed over the class's bindings) while the Prometheus
// counters stay aggregated — and the two agree.
func TestStatszPerClassAnswerCache(t *testing.T) {
	s := newAnscacheTestServer(t, Config{})
	h := s.Handler()
	const q = "//patient/name"
	for i := 0; i < 2; i++ { // second run is an equal hit
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape(q)); w.Code != http.StatusOK {
			t.Fatalf("query %d status = %d", i, w.Code)
		}
	}
	st := s.Stats()
	if len(st.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(st.Classes))
	}
	cs := st.Classes[0]
	if cs.AnswerCache.Hits != 1 || cs.AnswerCache.Misses != 1 {
		t.Errorf("per-class answer cache = %+v, want 1 hit 1 miss", cs.AnswerCache)
	}
	var hits, misses uint64
	for _, b := range cs.Bindings {
		hits += b.Engine.AnswerCache.Hits
		misses += b.Engine.AnswerCache.Misses
	}
	if hits != cs.AnswerCache.Hits || misses != cs.AnswerCache.Misses {
		t.Errorf("class rollup (%d/%d) disagrees with binding sum (%d/%d)",
			cs.AnswerCache.Hits, cs.AnswerCache.Misses, hits, misses)
	}
	body := get(t, h, "/metricsz").Body.String()
	if got := metricValue(t, body, "sv_anscache_hits_total"); got != hits {
		t.Errorf("sv_anscache_hits_total = %d, want %d", got, hits)
	}
	// The cached answer's fingerprint row records the outcome too.
	qz := getQueryz(t, h, "/queryz?n=0")
	if len(qz.Top) != 1 || qz.Top[0].AnsCacheEqual != 1 || qz.Top[0].AnsCacheMisses != 1 {
		t.Errorf("queryz anscache tallies = %+v", qz.Top)
	}
}
