package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dtds"
	"repro/internal/xmltree"
)

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, o options) *result {
	t.Helper()
	if o.log == nil {
		o.log = io.Discard
	}
	if o.spansDir == "" {
		o.spansDir = t.TempDir()
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dropOneNode wraps a handler so that the first non-empty /query answer
// loses its first node; every other response passes through unchanged.
func dropOneNode(t *testing.T, h http.Handler) http.Handler {
	var once sync.Once
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == "/query" && rec.Code == http.StatusOK && !strings.HasPrefix(string(body), `<result count="0"`) {
			once.Do(func() {
				doc, err := xmltree.ParseString(string(body))
				if err != nil {
					t.Errorf("parse answer: %v", err)
					return
				}
				kept := doc.Root.Children[1:]
				var b strings.Builder
				b.WriteString(`<result count="` + strconv.Itoa(len(kept)) + "\">\n")
				for _, n := range kept {
					b.WriteString(n.String())
				}
				b.WriteString("</result>\n")
				body = []byte(b.String())
			})
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestOracleCatchesADroppedNode(t *testing.T) {
	o := options{workload: mustWorkload(t, "hot-small"), seed: 1, seconds: 300 * time.Millisecond}
	if res := run(t, o); !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d of %d, want every answer to match", res.Correct, res.Failed, res.Attempted)
	}
	o.wrap = func(h http.Handler) http.Handler { return dropOneNode(t, h) }
	res := run(t, o)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("dropped node: correct=%v failed=%d of %d, want failed_ratio > 0", res.Correct, res.Failed, res.Attempted)
	}
}

func TestTracedLedgerCloses(t *testing.T) {
	res := run(t, options{workload: mustWorkload(t, "hot-small"), seed: 1, seconds: time.Second, trace: true})
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["core.plancache.hit_ratio"].Value; got != 1 {
		t.Errorf("hot-small plan-cache hit ratio %v, want 1", got)
	}
	if got := res.Metrics["anscache.equal_hit_ratio"].Value; got != 0 {
		t.Errorf("answer cache is off on hot-small, but equal-hit ratio is %v", got)
	}
}

func smallOracle(t *testing.T) *oracle {
	t.Helper()
	orc, err := newOracle(dtds.GenerateHospital(docSeed, smallRepeat))
	if err != nil {
		t.Fatal(err)
	}
	return orc
}

func TestColdPlansTextsAreDistinctAndSeeded(t *testing.T) {
	orc := smallOracle(t)
	draw := func(seed int64, n int) []string {
		src, err := coldPlans(orc, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, n)
		for i := range out {
			out[i] = src.next().text
		}
		return out
	}
	a := draw(1, 5000)
	seen := map[string]bool{}
	for _, text := range a {
		if seen[text] {
			t.Fatalf("text repeats: %s", text)
		}
		seen[text] = true
	}
	b := draw(1, 200)
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("seed 1 draw %d differs between sources: %q vs %q", i, a[i], b[i])
		}
	}
	if c := draw(2, 1); c[0] == a[0] {
		t.Errorf("seeds 1 and 2 start with the same text %q", c[0])
	}
}

// TestColdPlansComposedAnswers checks the composed expectations of the
// first cold-plans requests against evaluating each whole text over the
// view.
func TestColdPlansComposedAnswers(t *testing.T) {
	orc := smallOracle(t)
	src, err := coldPlans(orc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := src.next()
		nodes, err := orc.eval(r.ward, r.text)
		if err != nil {
			t.Fatal(err)
		}
		if !r.want.sameNodes(nodes) {
			t.Fatalf("%s (ward %s): composed answer has %d nodes, direct evaluation %d", r.text, r.ward, len(r.want.nodes), len(nodes))
		}
		if len(nodes) == 0 {
			t.Errorf("%s (ward %s): empty answer", r.text, r.ward)
		}
	}
}

// TestWorkloadsBuild builds every workload's request source; building
// fails on any fixed query whose oracle answer is empty.
func TestWorkloadsBuild(t *testing.T) {
	orcs := map[int]*oracle{}
	for _, w := range workloads {
		orc := orcs[w.repeat]
		if orc == nil {
			var err error
			orc, err = newOracle(dtds.GenerateHospital(docSeed, w.repeat))
			if err != nil {
				t.Fatal(err)
			}
			orcs[w.repeat] = orc
		}
		if _, err := w.source(orc, 1); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}
