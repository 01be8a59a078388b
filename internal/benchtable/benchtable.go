// Package benchtable regenerates the paper's evaluation (Section 6,
// Table 1): the four XPath queries Q1-Q4 over four Adex data sets D1-D4,
// comparing three enforcement approaches that all answer the same view
// queries —
//
//	naive     element-level accessibility annotation; child axes widened
//	          to descendant axes plus an [@accessibility="1"] filter
//	rewrite   the paper's security-view query rewriting (Fig. 6)
//	optimize  rewrite plus DTD-constraint optimization (Fig. 10)
//
// The harness measures pure query-evaluation time (as the paper does),
// verifies that all approaches return identical answers, and reports per
// cell timings plus the naive/rewrite and rewrite/optimize speedups whose
// shape Table 1 documents: rewrite beats naive by an order of magnitude
// or more, optimize matches rewrite on Q1/Q2 (reported "-"), improves Q3,
// and proves Q4 empty (zero evaluation). Each cell also records the
// evaluator's nodes-visited count per approach, a deterministic axis for
// the same shape.
package benchtable

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dtds"
	"repro/internal/naive"
	"repro/internal/optimize"
	"repro/internal/rewrite"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// DataSet describes one generated document.
type DataSet struct {
	Name      string
	MaxRepeat int // XML Generator branching factor
}

// DefaultDataSets mirror the paper's D1-D4 size progression (the paper
// scales 3.2 MB to 77 MB ≈ 1:24; these scale node counts similarly).
var DefaultDataSets = []DataSet{
	{Name: "D1", MaxRepeat: 400},
	{Name: "D2", MaxRepeat: 2000},
	{Name: "D3", MaxRepeat: 6400},
	{Name: "D4", MaxRepeat: 9600},
}

// QueryNames fixes the report order.
var QueryNames = []string{"Q1", "Q2", "Q3", "Q4"}

// Cell is one (query, data set) measurement.
type Cell struct {
	Query, DataSet string
	DocNodes       int

	Naive    time.Duration
	Rewrite  time.Duration
	Optimize time.Duration
	// OptimizeDiffers is false when the optimizer could not improve the
	// rewritten query (Table 1 prints "-"); Optimize then just replays the
	// rewrite measurement.
	OptimizeDiffers bool
	// EmptyAfterOptimize marks queries proved empty (Q4): evaluation is
	// avoided entirely.
	EmptyAfterOptimize bool
	// Results is the number of nodes returned (identical across
	// approaches by construction; the harness verifies it).
	Results int
	// NaiveVisits, RewriteVisits, and OptimizeVisits are the evaluator's
	// nodes-visited ticks for one evaluation of each approach's query
	// (xpath.EvalDocCtxCounted). Unlike the timings they are exact and
	// repeatable, so they carry the shape gates.
	NaiveVisits, RewriteVisits, OptimizeVisits uint64

	RewrittenQuery string
	OptimizedQuery string
}

// Report is a full Table 1 run.
type Report struct {
	Cells []Cell
	Sizes map[string]int // data set -> node count
}

// Config controls a run.
type Config struct {
	DataSets []DataSet
	// Repeats averages each timing over this many evaluations (default 3).
	Repeats int
	// Seed feeds the generator (data sets use Seed+i).
	Seed int64
	// Verify cross-checks that the three approaches agree node-for-node.
	Verify bool
	// Indexed evaluates with the label-index evaluator instead of the
	// tree-walking one (the closer analogue of the paper's evaluator
	// [17]); the naive/rewrite gap narrows but persists.
	Indexed bool
}

func (c Config) withDefaults() Config {
	if len(c.DataSets) == 0 {
		c.DataSets = DefaultDataSets
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// Run regenerates Table 1.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	spec := dtds.AdexSpec()
	view, err := secview.Derive(spec)
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.ForView(view)
	if err != nil {
		return nil, err
	}
	opt := optimize.New(dtds.Adex())

	report := &Report{Sizes: make(map[string]int)}
	for i, ds := range cfg.DataSets {
		doc := dtds.GenerateAdex(cfg.Seed+int64(i), ds.MaxRepeat)
		naive.Annotate(spec, doc)
		report.Sizes[ds.Name] = doc.Size()
		var idx *xpath.Index
		if cfg.Indexed {
			idx = xpath.NewIndex(doc)
		}
		for _, qname := range QueryNames {
			cell, err := measure(cfg, rw, opt, ds.Name, qname, doc, idx)
			if err != nil {
				return nil, err
			}
			report.Cells = append(report.Cells, *cell)
		}
	}
	return report, nil
}

func measure(cfg Config, rw *rewrite.Rewriter, opt *optimize.Optimizer, dsName, qname string, doc *xmltree.Document, idx *xpath.Index) (*Cell, error) {
	p, err := xpath.Parse(dtds.AdexQueries[qname])
	if err != nil {
		return nil, err
	}
	pn, err := naive.RewriteQuery(p)
	if err != nil {
		return nil, fmt.Errorf("%s: naive rewrite: %v", qname, err)
	}
	pt, err := rw.Rewrite(p)
	if err != nil {
		return nil, fmt.Errorf("%s: rewrite: %v", qname, err)
	}
	po := opt.Optimize(pt)

	cell := &Cell{
		Query:              qname,
		DataSet:            dsName,
		DocNodes:           doc.Size(),
		OptimizeDiffers:    !xpath.Equal(pt, po),
		EmptyAfterOptimize: xpath.IsEmpty(po),
		RewrittenQuery:     xpath.String(pt),
		OptimizedQuery:     xpath.String(po),
	}

	eval := func(p xpath.Path) []*xmltree.Node {
		if idx != nil {
			return xpath.EvalIndexed(p, idx)
		}
		return xpath.EvalDoc(p, doc)
	}

	if cfg.Verify {
		nv := eval(pn)
		rv := eval(pt)
		ov := eval(po)
		if !sameNodes(nv, rv) || !sameNodes(rv, ov) {
			return nil, fmt.Errorf("%s over %s: approaches disagree (naive %d, rewrite %d, optimize %d)",
				qname, dsName, len(nv), len(rv), len(ov))
		}
		cell.Results = len(rv)
	}

	timeEval := func(p xpath.Path) time.Duration {
		var total time.Duration
		for i := 0; i < cfg.Repeats; i++ {
			start := time.Now()
			eval(p)
			total += time.Since(start)
		}
		return total / time.Duration(cfg.Repeats)
	}

	for _, v := range []struct {
		p   xpath.Path
		out *uint64
	}{{pn, &cell.NaiveVisits}, {pt, &cell.RewriteVisits}, {po, &cell.OptimizeVisits}} {
		if _, *v.out, err = xpath.EvalDocCtxCounted(context.Background(), v.p, doc); err != nil {
			return nil, fmt.Errorf("%s over %s: counted evaluation: %v", qname, dsName, err)
		}
	}

	cell.Naive = timeEval(pn)
	cell.Rewrite = timeEval(pt)
	if cell.EmptyAfterOptimize {
		cell.Optimize = 0
	} else if cell.OptimizeDiffers {
		cell.Optimize = timeEval(po)
	} else {
		cell.Optimize = cell.Rewrite
	}
	return cell, nil
}

func sameNodes(a, b []*xmltree.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Format renders the report in the layout of the paper's Table 1, with
// speedup columns appended.
func (r *Report) Format() string {
	var b strings.Builder
	names := make([]string, 0, len(r.Sizes))
	for n := range r.Sizes {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("Data sets:\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %s: %d nodes\n", n, r.Sizes[n])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-5s %-4s %12s %12s %12s %10s %10s | %10s %10s %10s\n",
		"Query", "Data", "Naive", "Rewrite", "Optimize", "N/R", "R/O", "N-visits", "R-visits", "O-visits")
	for _, c := range r.Cells {
		optCol := "-"
		ratioRO := "-"
		if c.EmptyAfterOptimize {
			optCol = "0"
			ratioRO = "∞"
		} else if c.OptimizeDiffers {
			optCol = fmtDur(c.Optimize)
			if c.Optimize > 0 {
				ratioRO = fmt.Sprintf("%.2fx", float64(c.Rewrite)/float64(c.Optimize))
			}
		}
		ratioNR := "-"
		if c.Rewrite > 0 {
			ratioNR = fmt.Sprintf("%.1fx", float64(c.Naive)/float64(c.Rewrite))
		}
		fmt.Fprintf(&b, "%-5s %-4s %12s %12s %12s %10s %10s | %10d %10d %10d\n",
			c.Query, c.DataSet, fmtDur(c.Naive), fmtDur(c.Rewrite), optCol, ratioNR, ratioRO,
			c.NaiveVisits, c.RewriteVisits, c.OptimizeVisits)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}
