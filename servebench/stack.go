package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/dtds"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// engineConfig is svserve's default engine configuration (indexed
// evaluation on), with the answer cache as -anscache sets it.
func engineConfig(w *workload) core.Config {
	return core.Config{Indexed: true, AnswerCache: w.answerCache}
}

// newRegistry defines the nurse class and derives one engine per ward.
func newRegistry(d *dtd.DTD, cfg core.Config) (*policy.Registry, *policy.Class, error) {
	reg := policy.NewRegistryWithConfig(d, 0, cfg)
	class, err := reg.Define(className, dtds.NurseSpecSource)
	if err != nil {
		return nil, nil, err
	}
	for _, ward := range wards {
		if _, err := class.Engine(map[string]string{"wardNo": ward}); err != nil {
			return nil, nil, err
		}
	}
	return reg, class, nil
}

// stack is one serving stack: a document, a registry and serve.New
// over them behind a loopback listener.
type stack struct {
	doc   *xmltree.Document
	class *policy.Class
	srv   *serve.Server
	http  *http.Server
	base  string
	done  chan struct{}
}

// setupTimes splits one set-up.
type setupTimes struct {
	parse, validate, derive, total time.Duration
}

// setUp builds a stack from the document's XML bytes, timing what
// setup_s covers: parse and validate the document, define the class,
// derive one engine per ward, build the server and open its listener.
// wrap, when set, wraps the server's handler.
func setUp(xml []byte, cfg core.Config, wrap func(http.Handler) http.Handler) (*stack, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	d := dtds.Hospital()
	doc, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		return nil, t, err
	}
	parsed := time.Now()
	if err := xmltree.Validate(doc, d); err != nil {
		return nil, t, err
	}
	validated := time.Now()
	reg, class, err := newRegistry(d, cfg)
	if err != nil {
		return nil, t, err
	}
	derived := time.Now()
	s, err := listen(doc, reg, class, wrap)
	if err != nil {
		return nil, t, err
	}
	end := time.Now()
	t = setupTimes{parse: parsed.Sub(start), validate: validated.Sub(parsed), derive: derived.Sub(validated), total: end.Sub(start)}
	return s, t, nil
}

// listen serves a registry over a document on a loopback port, with
// svserve's defaults: the zero serve.Config and a 5 s header timeout.
func listen(doc *xmltree.Document, reg *policy.Registry, class *policy.Class, wrap func(http.Handler) http.Handler) (*stack, error) {
	srv := serve.New(reg, doc, serve.Config{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		doc: doc, class: class, srv: srv,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for it to exit.
func (s *stack) close() {
	s.http.Close()
	<-s.done
}

// engines returns the stack's engine per ward, in ward order.
func (s *stack) engines() ([]*core.Engine, error) {
	var out []*core.Engine
	for _, ward := range wards {
		e, err := s.class.Engine(map[string]string{"wardNo": ward})
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// state is the end-of-run readout of what the stack retains, through
// public Stats.
type state struct {
	MemoCells     int    `json:"memo_cells"`
	PlanEntries   int    `json:"plan_cache_entries"`
	PlanHits      uint64 `json:"plan_cache_hits"`
	PlanMisses    uint64 `json:"plan_cache_misses"`
	PlanEvictions uint64 `json:"plan_cache_evictions"`
	AnswerEntries int    `json:"answer_cache_entries"`
	AnswerEqual   uint64 `json:"answer_cache_equal_hits"`
	AnswerContain uint64 `json:"answer_cache_containment_hits"`
	AnswerMisses  uint64 `json:"answer_cache_misses"`
	AnswerEvicted uint64 `json:"answer_cache_evictions"`
	Engines       int    `json:"engines"`
	IndexedEvals  uint64 `json:"indexed_evals"`
	Evals         uint64 `json:"evals"`
}

func (s *stack) state() (state, error) {
	var st state
	es, err := s.engines()
	if err != nil {
		return st, err
	}
	for _, e := range es {
		r, err := e.Rewriter(0)
		if err != nil {
			return st, err
		}
		st.MemoCells += r.MemoLen()
	}
	stats := s.srv.Stats()
	for _, c := range stats.Classes {
		st.Engines += c.Engines.Entries
		for _, b := range c.Bindings {
			pc, ac := b.Engine.PlanCache, b.Engine.AnswerCache
			st.PlanEntries += pc.Entries
			st.PlanHits += pc.Hits
			st.PlanMisses += pc.Misses
			st.PlanEvictions += pc.Evictions
			st.AnswerEntries += ac.Entries
			st.AnswerEqual += ac.Hits
			st.AnswerContain += ac.ContainmentHits
			st.AnswerMisses += ac.Misses
			st.AnswerEvicted += ac.Evictions
		}
	}
	p := stats.Server.Pipeline
	st.IndexedEvals = p.IndexedEvals
	st.Evals = p.SequentialEvals + p.ParallelEvals + p.IndexedEvals
	return st, nil
}

// client is one keep-alive connection of the closed loop.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get sends one GET and reads the whole body into c.buf.
func (c *client) get(url string) (int, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// tally counts one phase's outcomes.
type tally struct {
	attempted, ok, failed int
	firstFailure          string
	samples               []sample
	elapsed               time.Duration
}

// sample is one closed-loop request: when it completed, counted from
// the start of its phase, how long it took, and whether it was correct.
type sample struct {
	done, lat time.Duration
	ok        bool
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
	t.samples = append(t.samples, o.samples...)
}

// check records one response against its expected answer.
func (t *tally) check(r *request, status int, err error, body []byte) bool {
	t.attempted++
	switch {
	case err != nil:
		t.fail(fmt.Sprintf("%s: %v", r.text, err))
	case !r.want.matches(status, body):
		t.fail(fmt.Sprintf("%s (ward %s): status %d, %d-byte body differs from the oracle's %d bytes",
			r.text, r.ward, status, len(body), len(r.want.body)))
	default:
		t.ok++
		return true
	}
	return false
}

func (t *tally) fail(msg string) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = msg
	}
}

// drive runs a closed loop of `clients` keep-alive connections against
// base: each sends its next request only after reading the previous
// response in full and checking it against the oracle. The phase ends
// after `count` requests when count > 0, else at the deadline.
func drive(base string, src source, clients, count int, deadline time.Time) tally {
	var issued atomic.Int64
	results := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range results {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			t.samples = make([]sample, 0, 1<<14)
			for {
				if count > 0 {
					if issued.Add(1) > int64(count) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				r := src.next()
				t0 := time.Now()
				status, err := c.get(base + r.path)
				end := time.Now()
				ok := t.check(r, status, err, c.buf.Bytes())
				t.samples = append(t.samples, sample{done: end.Sub(start), lat: end.Sub(t0), ok: ok})
			}
		}(&results[i])
	}
	wg.Wait()
	var sum tally
	for _, r := range results {
		sum.add(r)
	}
	sum.elapsed = time.Since(start)
	return sum
}

// windowed splits a timed phase into n windows of equal length by
// completion time and returns, as medians over the windows, the correct
// answers per second and the 0.5 and 0.9 latency quantiles. Medians over
// windows keep a burst of load from other processes on the machine from
// moving a run's figures. Requests completing after the last window are
// left out.
func windowed(t tally, n int, window time.Duration) (rps, p50us, p90us float64) {
	lats := make([][]time.Duration, n)
	oks := make([]float64, n)
	for _, s := range t.samples {
		w := int(s.done / window)
		if w >= n {
			continue
		}
		lats[w] = append(lats[w], s.lat)
		if s.ok {
			oks[w]++
		}
	}
	rates := make([]float64, n)
	q50 := make([]float64, n)
	q90 := make([]float64, n)
	for w := range lats {
		sortDurations(lats[w])
		rates[w] = oks[w] / window.Seconds()
		q50[w] = us(quantile(lats[w], 0.5))
		q90[w] = us(quantile(lats[w], 0.9))
	}
	return median(rates), median(q50), median(q90)
}

func median(x []float64) float64 {
	sort.Float64s(x)
	if len(x)%2 == 1 {
		return x[len(x)/2]
	}
	return (x[len(x)/2-1] + x[len(x)/2]) / 2
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// discardWriter is an http.ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// withServeDeadline gives direct layer calls the deadline serve gives a
// request that passes no ?timeout=.
func withServeDeadline() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), serve.DefaultTimeout)
}
