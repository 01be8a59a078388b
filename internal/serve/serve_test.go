package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/latency"
	"repro/internal/policy"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

// newTestServer builds a server over the hospital scenario: the unbound
// nurse policy (wardNo binds per request) and a generated ward document.
func newTestServer(t *testing.T, cfg Config, maxRepeat int) *Server {
	t.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{})
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		t.Fatalf("DefineSpec: %v", err)
	}
	doc := xmlgen.Generate(spec.D, xmlgen.Config{
		Seed:      7,
		MinRepeat: maxRepeat - 2,
		MaxRepeat: maxRepeat,
		Value: func(r *rand.Rand, label string) string {
			if label == "wardNo" {
				return fmt.Sprintf("%d", r.Intn(4))
			}
			return fmt.Sprintf("%s-%d", label, r.Intn(1000))
		},
	})
	return New(reg, doc, cfg)
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	return w
}

func TestQueryOK(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name"))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %q", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/xml") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, "<result count=") || !strings.HasSuffix(strings.TrimSpace(body), "</result>") {
		t.Errorf("body is not a result envelope: %.120q", body)
	}
	st := s.Stats().Server
	if st.Requests != 1 || st.OK != 1 || st.Latency.Count != 1 {
		t.Errorf("server stats after one query: %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	cases := []struct {
		name, target string
	}{
		{"missing q", "/query?class=nurse"},
		{"missing class", "/query?q=//name"},
		{"bad param", "/query?class=nurse&q=//name&param=wardNo"},
		{"bad timeout", "/query?class=nurse&param=wardNo=1&q=//name&timeout=soon"},
		{"negative timeout", "/query?class=nurse&param=wardNo=1&q=//name&timeout=-1s"},
		{"unknown class", "/query?class=admin&q=//name"},
		{"unparsable query", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//[")},
		{"unbound param", "/query?class=nurse&q=//name"},
	}
	for _, c := range cases {
		if w := get(t, h, c.target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", c.name, w.Code, w.Body.String())
		}
	}
	if st := s.Stats().Server; st.BadRequests != uint64(len(cases)) {
		t.Errorf("BadRequests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestDeepQueryRejected: a 4.9M-deep parenthesized query (a 9.8 MB
// POST body) used to overflow the parser's stack and end the process;
// it is now a 400 like any other syntax error, and the server keeps
// answering.
func TestDeepQueryRejected(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	const depth = 4_900_000
	q := strings.Repeat("(", depth) + "patient" + strings.Repeat(")", depth)
	form := url.Values{"class": {"nurse"}, "param": {"wardNo=1"}, "q": {q}}
	req := httptest.NewRequest("POST", "/query", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %.200q)", w.Code, w.Body.String())
	}
	if w.Body.Len() > 1024 {
		t.Errorf("error body is %d bytes; it should not echo the query", w.Body.Len())
	}
	if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
		t.Errorf("follow-up query: status = %d", w.Code)
	}
}

// TestOversizedFormRejected: a /query or /explainz body over
// maxFormBytes is cut off after the limit instead of being read in
// full — the 11 MB form below passed net/http's own 10 MB default — and
// answered 400 with a JSON error; the server then answers the next
// request as usual.
func TestOversizedFormRejected(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	q := strings.Repeat("a/", 11<<20/2) + "a"
	body := url.Values{"class": {"nurse"}, "param": {"wardNo=1"}, "q": {q}}.Encode()
	for _, path := range []string{"/query", "/explainz"} {
		resp, err := http.Post(srv.URL+path, "application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var e struct {
			Error      string `json:"error"`
			LimitBytes int    `json:"limit_bytes"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status = %d, want 400", path, resp.StatusCode)
		}
		if derr != nil || e.Error == "" || e.LimitBytes != maxFormBytes {
			t.Errorf("POST %s: body is not the JSON error (%v, %+v)", path, derr, e)
		}
		next, err := http.Get(srv.URL + "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name"))
		if err != nil {
			t.Fatalf("request after the oversized form: %v", err)
		}
		next.Body.Close()
		if next.StatusCode != http.StatusOK {
			t.Errorf("request after the oversized form: status = %d", next.StatusCode)
		}
	}
	if got := s.Stats().Server.BadRequests; got != 2 {
		t.Errorf("bad requests = %d, want 2", got)
	}
}

// TestAdmissionControl: with MaxInFlight=2 and two requests pinned in
// flight, a third is refused with 429 + Retry-After instead of queueing;
// after the slots free up the server accepts work again.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2}, 3)
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	s.testHook = func() {
		entered <- struct{}{}
		<-release
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	target := srv.URL + "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//name")

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(target)
			if err != nil {
				t.Errorf("pinned request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Both slots taken...
	<-entered
	<-entered
	// ...so the third request must be refused immediately.
	resp, err := http.Get(target)
	if err != nil {
		t.Fatalf("saturating request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 response missing Retry-After")
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("pinned request %d: status %d", i, code)
		}
	}
	s.testHook = nil
	if w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")); w.Code != http.StatusOK {
		t.Errorf("post-drain request: status %d", w.Code)
	}
	st := s.Stats().Server
	if st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after drain", st.InFlight)
	}
}

// TestDeadline504: a 1ms budget on an expensive query over a large
// document comes back 504 well within the handler's own clock (the
// evaluators poll deadlines cooperatively).
func TestDeadline504(t *testing.T) {
	s := newTestServer(t, Config{}, 28)
	h := s.Handler()
	q := url.QueryEscape("//*[//name]//*[//name]//name")
	start := time.Now()
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+q+"&timeout=1ms")
	elapsed := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %.120q)", w.Code, w.Body.String())
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("deadline response took %v, want well under 100ms", elapsed)
	}
	if st := s.Stats().Server; st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	// Same query with a generous budget succeeds — the cancelled run left
	// the class engine and its plan cache usable.
	w = get(t, h, "/query?class=nurse&param=wardNo=1&q="+q+"&timeout=30s")
	if w.Code != http.StatusOK {
		t.Errorf("retry status = %d (body %.120q)", w.Code, w.Body.String())
	}
}

// TestStatszShape: /statsz decodes as JSON with the server section, the
// latency histogram, and per-class engine stats from the layers below.
func TestStatszShape(t *testing.T) {
	s := newTestServer(t, Config{}, 4)
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//patient/name")); w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, w.Code)
		}
	}
	w := get(t, h, "/statsz")
	if w.Code != http.StatusOK {
		t.Fatalf("statsz status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var got Statsz
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("statsz does not decode: %v\n%s", err, w.Body.String())
	}
	sv := got.Server
	if sv.Requests != 3 || sv.OK != 3 {
		t.Errorf("requests/ok = %d/%d, want 3/3", sv.Requests, sv.OK)
	}
	if sv.Latency.Count != 3 || len(sv.Latency.Buckets) != latency.NumBuckets {
		t.Errorf("latency section: %+v", sv.Latency)
	}
	if !(sv.Latency.P50Micros <= sv.Latency.P95Micros && sv.Latency.P95Micros <= sv.Latency.P99Micros) {
		t.Errorf("percentiles not ordered: %+v", sv.Latency)
	}
	if sv.Latency.P99Micros > sv.Latency.MaxMicros {
		t.Errorf("p99 %v exceeds max %v", sv.Latency.P99Micros, sv.Latency.MaxMicros)
	}
	var total uint64
	for _, n := range sv.Latency.Buckets {
		total += n
	}
	if total != sv.Latency.Count {
		t.Errorf("histogram buckets sum to %d, count %d", total, sv.Latency.Count)
	}
	if sv.DocumentNodes == 0 || sv.DocumentHeight == 0 {
		t.Errorf("document fields empty: %+v", sv)
	}
	if len(got.Classes) != 1 || got.Classes[0].Class != "nurse" {
		t.Fatalf("classes = %+v", got.Classes)
	}
	cl := got.Classes[0]
	if len(cl.Bindings) != 1 {
		t.Fatalf("bindings = %+v", cl.Bindings)
	}
	eng := cl.Bindings[0].Engine
	if eng.Queries != 3 || eng.PlanCache.Misses != 1 || eng.PlanCache.Hits != 2 {
		t.Errorf("engine stats: %+v", eng)
	}
}

// TestInternalErrorIs500: an engine-side failure on a well-formed
// request is the server's fault — it must come back 500 and increment
// internal_errors, not masquerade as a client 400.
func TestInternalErrorIs500(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	s.query = func(context.Context, string, map[string]string, *xmltree.Document, string) ([]*xmltree.Node, error) {
		return nil, errors.New("rewrite: internal invariant broken")
	}
	w := get(t, s.Handler(), "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name"))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", w.Code, w.Body.String())
	}
	st := s.Stats().Server
	if st.InternalErrors != 1 {
		t.Errorf("InternalErrors = %d, want 1", st.InternalErrors)
	}
	if st.BadRequests != 0 {
		t.Errorf("BadRequests = %d, want 0 (internal failure misreported as client fault)", st.BadRequests)
	}
}

// TestClientFaultClassification: the real registry errors that are the
// client's fault keep coming back 400 through the classifier, and none
// of them bump internal_errors.
func TestClientFaultClassification(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	h := s.Handler()
	cases := []struct {
		name, target string
	}{
		{"unknown class", "/query?class=admin&q=//name"},
		{"parse error", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//[")},
		{"unbound param", "/query?class=nurse&q=//name"},
		{"unbound query var", "/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape(`//patient[wardNo = $other]`)},
	}
	for _, c := range cases {
		if w := get(t, h, c.target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %q)", c.name, w.Code, w.Body.String())
		}
	}
	st := s.Stats().Server
	if st.InternalErrors != 0 {
		t.Errorf("InternalErrors = %d, want 0", st.InternalErrors)
	}
	if st.BadRequests != uint64(len(cases)) {
		t.Errorf("BadRequests = %d, want %d", st.BadRequests, len(cases))
	}
}

// TestHistogramSumsToCount: after a spread of requests (fast, slow, and
// timed-out), every observation landed in exactly one bucket of the
// finer ladder, so the bucket counts sum to latency.count.
func TestHistogramSumsToCount(t *testing.T) {
	s := newTestServer(t, Config{}, 8)
	h := s.Handler()
	targets := []string{
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//patient/name"),
		"/query?class=nurse&param=wardNo=2&q=" + url.QueryEscape("//dept//bill"),
		"/query?class=nurse&param=wardNo=1&q=" + url.QueryEscape("//*[//name]//name") + "&timeout=1ms",
		"/query?class=nurse&param=wardNo=3&q=" + url.QueryEscape("//staff/name"),
	}
	for i := 0; i < 3; i++ {
		for _, target := range targets {
			get(t, h, target)
		}
	}
	lat := s.Stats().Server.Latency
	if lat.Count != uint64(3*len(targets)) {
		t.Fatalf("latency count = %d, want %d", lat.Count, 3*len(targets))
	}
	var total uint64
	for _, n := range lat.Buckets {
		total += n
	}
	if total != lat.Count {
		t.Errorf("histogram buckets sum to %d, count %d", total, lat.Count)
	}
}

// TestHealthz: the liveness endpoint answers without touching the
// query path.
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{}, 3)
	w := get(t, s.Handler(), "/healthz")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", w.Code, w.Body.String())
	}
}

// TestTimeoutClamp: an explicit timeout above MaxTimeout is clamped, and
// a config with no default still caps requests at MaxTimeout.
func TestTimeoutClamp(t *testing.T) {
	cfg := Config{DefaultTimeout: -1, MaxTimeout: time.Nanosecond}
	s := newTestServer(t, cfg, 3)
	h := s.Handler()
	// No explicit timeout: the 1ns hard cap still applies, so the query
	// must come back 504 rather than running unbounded.
	w := get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name"))
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("capped default: status = %d, want 504", w.Code)
	}
	// Explicit timeout above the cap is clamped to it.
	w = get(t, h, "/query?class=nurse&param=wardNo=1&q="+url.QueryEscape("//name")+"&timeout=10s")
	if w.Code != http.StatusGatewayTimeout {
		t.Errorf("clamped explicit: status = %d, want 504", w.Code)
	}
}
