// Command svquery answers XPath queries over a security view without
// materializing it: it derives (or loads) the view, rewrites the query
// into an equivalent query over the original document, optimizes it
// against the document DTD, evaluates, and prints the result as XML.
//
// Usage:
//
//	svquery -dtd hospital.dtd -spec nurse.ann -doc ward.xml \
//	        -param wardNo=6 -q '//patient/name'
//	svquery -builtin hospital -doc ward.xml -param wardNo=6 -q '//patient'
//	svquery -view nurse.view -doc ward.xml -q '//patient'
//
// Flags -show-rewrite and -show-optimize print the intermediate queries;
// -explain prints a JSON explain document instead of the result XML
// (the intermediate queries plus fresh per-phase timings and the eval
// mode — the CLI twin of the server's /explainz); -no-optimize skips
// the optimization pass and evaluates outside the engine; -indexed
// gives the engine a label index and answers descendant queries from
// its posting lists whatever the document size. -stats prints
// the engine's plan-cache and evaluation counters to stderr, plus the
// query's fingerprint (the hash the server's /queryz rows and event-log
// records key on); -anscache
// answers repeats (and provably-contained restrictions) from a bounded
// semantic answer cache; -repeat re-runs the query to exercise the
// plan and answer caches; -timeout bounds each
// evaluation with a deadline regardless of evaluator (a query that
// exceeds it fails with a context error).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qstats"
	"repro/internal/secview"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func main() {
	var (
		dtdPath    = flag.String("dtd", "", "document DTD file")
		specPath   = flag.String("spec", "", "access specification file")
		builtin    = flag.String("builtin", "", "use a built-in scenario: hospital, adex, or fig7")
		viewPath   = flag.String("view", "", "load a saved view definition (from svderive -save) instead of -dtd/-spec")
		docPath    = flag.String("doc", "", "XML document file")
		query      = flag.String("q", "", "XPath query over the security view")
		showRw     = flag.Bool("show-rewrite", false, "print the rewritten document query")
		showOpt    = flag.Bool("show-optimize", false, "print the optimized document query")
		explain    = flag.Bool("explain", false, "print a JSON explain (per-phase timings, intermediate queries, eval mode) instead of the result")
		noOptimize = flag.Bool("no-optimize", false, "skip the DTD-based optimization pass")
		indexed    = flag.Bool("indexed", false, "answer descendant queries from a label index")
		anscache   = flag.Bool("anscache", false, "answer repeated or provably-contained queries from a bounded answer cache (pair with -repeat)")
		stats      = flag.Bool("stats", false, "print plan-cache and evaluation counters to stderr")
		repeat     = flag.Int("repeat", 1, "run the query this many times (repeats hit the plan and answer caches)")
		timeout    = flag.Duration("timeout", 0, "per-evaluation deadline, e.g. 250ms (0 = none)")
		params     cli.Params
	)
	flag.Var(&params, "param", "bind a specification parameter, e.g. -param wardNo=6 (repeatable)")
	flag.Parse()

	if *query == "" || *docPath == "" {
		fatal(fmt.Errorf("need -q and -doc"))
	}
	if *repeat < 1 {
		*repeat = 1
	}
	cfg := core.Config{AnswerCache: *anscache}
	if *indexed {
		cfg.Indexed, cfg.IndexThreshold = true, -1
	}
	engine, err := buildEngine(*viewPath, *builtin, *dtdPath, *specPath, params, cfg)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*docPath)
	if err != nil {
		fatal(err)
	}
	doc, err := xmltree.Parse(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := xmltree.Validate(doc, engine.DocumentDTD()); err != nil {
		fatal(fmt.Errorf("document does not conform to the DTD: %v", err))
	}

	p, err := xpath.Parse(*query)
	if err != nil {
		fatal(err)
	}
	if *explain {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		ex, err := engine.ExplainCtx(ctx, doc, p)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ex); err != nil {
			fatal(err)
		}
		printStats(engine, *stats, nil)
		return
	}
	if *showRw || *showOpt || *noOptimize {
		pt, err := engine.Rewrite(p, doc.Height())
		if err != nil {
			fatal(err)
		}
		if *showRw {
			fmt.Fprintf(os.Stderr, "rewritten: %s\n", xpath.String(pt))
		}
		if *noOptimize {
			evalUnoptimized(pt, doc, *indexed, *timeout, *stats)
			return
		}
		if *showOpt {
			fmt.Fprintf(os.Stderr, "optimized: %s\n", xpath.String(engine.Optimize(pt)))
		}
	}
	var result []*xmltree.Node
	qm := &obs.QueryMetrics{}
	for i := 0; i < *repeat; i++ {
		if result, err = queryOnce(engine, doc, p, *timeout, qm); err != nil {
			fatal(err)
		}
	}
	printResult(result)
	printStats(engine, *stats, qm)
}

// evalUnoptimized evaluates the rewritten query as is, outside the
// engine and its caches: -no-optimize asks for a plan the engine never
// builds.
func evalUnoptimized(pt xpath.Path, doc *xmltree.Document, indexed bool, timeout time.Duration, stats bool) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var result []*xmltree.Node
	var err error
	mode := obs.ModeSequential
	if indexed {
		mode = obs.ModeIndexed
		result, err = xpath.EvalIndexedCtx(ctx, pt, xpath.NewIndex(doc))
	} else {
		result, err = xpath.EvalDocCtx(ctx, pt, doc)
	}
	if err != nil {
		fatal(err)
	}
	printResult(result)
	if stats {
		fmt.Fprintf(os.Stderr, "evaluation:   1 %s, unoptimized, outside the engine\n", mode)
	}
}

// queryOnce runs one evaluation under the optional deadline, filling qm
// with the request's metrics (the last repeat wins).
func queryOnce(engine *core.Engine, doc *xmltree.Document, p xpath.Path, timeout time.Duration, qm *obs.QueryMetrics) ([]*xmltree.Node, error) {
	ctx := obs.WithQueryMetrics(context.Background(), qm)
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return engine.QueryCtx(ctx, doc, p)
}

// printResult writes the answer the way svserve's /query body carries
// it (without the envelope): every node appended into one buffer, one
// write.
func printResult(result []*xmltree.Node) {
	var b []byte
	for _, n := range result {
		b = n.AppendXML(b)
	}
	os.Stdout.Write(b)
}

// printStats dumps the engine counters; when qm carries a surfaced
// plan it also prints the query's fingerprint — the hash the server's
// /queryz rows and event-log records key on (class-less here, since a
// single-engine CLI has no user-class dimension).
func printStats(engine *core.Engine, show bool, qm *obs.QueryMetrics) {
	if !show {
		return
	}
	if qm != nil && qm.PlanText != "" {
		fmt.Fprintf(os.Stderr, "fingerprint:  %s  plan: %s\n", qstats.Fingerprint("", qm.PlanText), qm.PlanText)
	}
	s := engine.Stats()
	fmt.Fprintf(os.Stderr, "queries:      %d (%d cancelled)\n", s.Queries, s.Cancelled)
	fmt.Fprintf(os.Stderr, "plan cache:   %d hits, %d misses, %d evictions, %d/%d entries\n",
		s.PlanCache.Hits, s.PlanCache.Misses, s.PlanCache.Evictions, s.PlanCache.Entries, s.PlanCache.Capacity)
	fmt.Fprintf(os.Stderr, "evaluation:   %d sequential, %d indexed\n", s.SequentialEvals, s.IndexedEvals)
	if s.AnswerCache.Capacity > 0 {
		fmt.Fprintf(os.Stderr, "answer cache: %d hits, %d containment hits, %d misses, %d evictions, %d/%d entries\n",
			s.AnswerCache.Hits, s.AnswerCache.ContainmentHits, s.AnswerCache.Misses,
			s.AnswerCache.Evictions, s.AnswerCache.Entries, s.AnswerCache.Capacity)
	}
}

func buildEngine(viewPath, builtin, dtdPath, specPath string, params cli.Params, cfg core.Config) (*core.Engine, error) {
	if viewPath != "" {
		data, err := os.ReadFile(viewPath)
		if err != nil {
			return nil, err
		}
		view, err := secview.UnmarshalView(data)
		if err != nil {
			return nil, err
		}
		return core.FromViewConfig(view, cfg)
	}
	spec, err := cli.LoadSpec(builtin, dtdPath, specPath)
	if err != nil {
		return nil, err
	}
	if spec, err = cli.BindIfNeeded(spec, params); err != nil {
		return nil, err
	}
	return core.NewWithConfig(spec, cfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svquery:", err)
	os.Exit(1)
}
