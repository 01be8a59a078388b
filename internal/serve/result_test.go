package serve

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/xmltree"
)

// mixAnswers evaluates every loadgen.HospitalMix entry for the nurse
// class on dtds.GenerateHospital(1, repeat) and returns the answers.
func mixAnswers(tb testing.TB, repeat int) [][]*xmltree.Node {
	tb.Helper()
	spec := dtds.NurseSpec()
	reg := policy.NewRegistryWithConfig(spec.D, 0, core.Config{})
	if _, err := reg.DefineSpec("nurse", spec); err != nil {
		tb.Fatalf("DefineSpec: %v", err)
	}
	doc := dtds.GenerateHospital(1, repeat)
	var out [][]*xmltree.Node
	for _, e := range loadgen.HospitalMix() {
		nodes, err := reg.Query(e.Class, e.Params, doc, e.Query)
		if err != nil {
			tb.Fatalf("%s: %v", e.Name, err)
		}
		out = append(out, nodes)
	}
	return out
}

// discardWriter is a ResponseWriter that keeps the last body written
// and allocates nothing per request.
type discardWriter struct {
	h    http.Header
	body []byte
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// wantBody is the /query body of an answer: the <result> envelope
// around each node's serialization.
func wantBody(nodes []*xmltree.Node) string {
	var b strings.Builder
	b.WriteString(`<result count="` + strconv.Itoa(len(nodes)) + "\">\n")
	for _, n := range nodes {
		b.WriteString(n.String())
	}
	b.WriteString("</result>\n")
	return b.String()
}

// TestWriteResultBody: the envelope around the nodes' serializations,
// sent in one write.
func TestWriteResultBody(t *testing.T) {
	for _, nodes := range mixAnswers(t, 8) {
		w := &discardWriter{h: http.Header{}}
		writeResult(w, nodes)
		if want := wantBody(nodes); string(w.body) != want {
			t.Fatalf("body:\n%s\nwant:\n%s", w.body, want)
		}
		if ct := w.h.Get("Content-Type"); ct != "application/xml; charset=utf-8" {
			t.Errorf("Content-Type = %q", ct)
		}
	}
}

// TestWriteResultConcurrent: handlers share the buffer pool, so
// concurrent writes of different answers, small and over the pool's
// cap, must each send their own body.
func TestWriteResultConcurrent(t *testing.T) {
	answers := mixAnswers(t, 48)
	var all []*xmltree.Node
	for _, nodes := range answers {
		all = append(all, nodes...)
	}
	answers = append(answers, all)
	want := make([]string, len(answers))
	for i, nodes := range answers {
		want[i] = wantBody(nodes)
	}
	if len(want[len(want)-1]) <= maxPooledResult {
		t.Fatalf("no answer is over the pool's cap")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := &discardWriter{h: http.Header{}}
			for i := 0; i < 20; i++ {
				k := (g + i) % len(answers)
				writeResult(w, answers[k])
				if string(w.body) != want[k] {
					t.Errorf("goroutine %d: answer %d came back with another body", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteResultAllocsConstant: with the pooled buffer, the allocation
// count of writeResult does not grow with the answer.
func TestWriteResultAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	var big []*xmltree.Node
	for _, nodes := range mixAnswers(t, 48) {
		big = append(big, nodes...)
	}
	if len(big) < 200 {
		t.Fatalf("the mix answered only %d nodes", len(big))
	}
	big = big[:200]
	w := &discardWriter{h: http.Header{}, body: make([]byte, 0, 1<<16)}
	allocs := func(nodes []*xmltree.Node) float64 {
		return testing.AllocsPerRun(50, func() { writeResult(w, nodes) })
	}
	one, many := allocs(big[:1]), allocs(big)
	if len(w.body) > maxPooledResult {
		t.Fatalf("the 200-node body is %d bytes, over the pool's cap", len(w.body))
	}
	if one != many {
		t.Errorf("writeResult allocs: %v for 1 node, %v for 200 nodes; want equal", one, many)
	}
}

// BenchmarkWriteResult serializes the hospital mix's answers, in turn,
// as /query bodies on the 315-node and the 10,254-node document.
func BenchmarkWriteResult(b *testing.B) {
	for _, c := range []struct {
		name   string
		repeat int
	}{{"315-nodes", 8}, {"10254-nodes", 48}} {
		b.Run(c.name, func(b *testing.B) {
			answers := mixAnswers(b, c.repeat)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeResult(w, answers[i%len(answers)])
			}
		})
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool
