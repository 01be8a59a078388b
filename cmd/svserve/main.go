// Command svserve fronts the security-view query engine with an HTTP
// server: it loads one document and a set of user-class policies, then
// answers rewritten-query requests with per-request deadlines and
// admission control (saturation returns 429 rather than queueing).
//
// Usage:
//
//	svserve -builtin hospital -doc ward.xml
//	svserve -dtd hospital.dtd -class nurse=nurse.ann -doc ward.xml -addr :8344
//
// Endpoints:
//
//	GET /query?class=nurse&param=wardNo=6&q=//patient/name[&timeout=250ms]
//	GET /statsz   — JSON counters: server (requests, latency histogram,
//	                timeouts, rejections) and per-class engine/plan-cache
//	                stats from the layers below
//	GET /metricsz — the same counters plus per-phase latency histograms
//	                in Prometheus text exposition format
//	GET /queryz   — per-fingerprint query statistics (top-K by eval
//	                time, count, total time, or answer-cache miss rate)
//	GET /explainz — one query with fresh per-phase timings, the
//	                intermediate query strings, and its span tree
//	GET /tracez   — recent sampled request traces
//	GET /healthz  — 200 while serving, 503 once drain has begun
//	GET /debug/pprof/* — the runtime profiler
//
// Flags -timeout and -max-timeout bound each request's evaluation
// deadline; -max-inflight caps concurrent evaluations; -indexed (on by
// default) lets engines answer descendant queries over large documents
// from a cached per-document label index, with -index-threshold setting
// the minimum document size; -anscache lets engines answer repeated or provably-contained
// queries from a bounded semantic answer cache (-anscache-cap bounds
// it); -trace-sample/-trace-ring tune request-trace sampling and
// -slow-query the slow-query log threshold. -qstats-cap bounds the
// /queryz fingerprint registry. -eventlog FILE switches the slow-query
// log to a structured JSONL wide-event log (errors and slow queries
// always; -eventlog-sample N additionally samples one request in N),
// size-rotated at -eventlog-max-bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eventlog"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/xmltree"
)

// builtinClassNames gives each built-in scenario's single policy a
// class name for /query requests.
var builtinClassNames = map[string]string{
	"hospital": "nurse",
	"adex":     "buyer",
	"fig7":     "user",
}

func main() {
	var (
		addr        = flag.String("addr", ":8344", "listen address")
		dtdPath     = flag.String("dtd", "", "document DTD file (with -class)")
		builtin     = flag.String("builtin", "", "use a built-in scenario: hospital, adex, or fig7")
		docPath     = flag.String("doc", "", "XML document file to serve queries against")
		timeout     = flag.Duration("timeout", serve.DefaultTimeout, "default per-request evaluation deadline")
		maxTimeout  = flag.Duration("max-timeout", serve.DefaultMaxTimeout, "hard cap on per-request deadlines")
		maxInFlight = flag.Int("max-inflight", serve.DefaultMaxInFlight, "maximum concurrently evaluating queries (excess gets 429)")
		indexed     = flag.Bool("indexed", true, "serve descendant queries over large documents from a cached label index")
		indexMin    = flag.Int("index-threshold", 0, "minimum document size (nodes) for indexed evaluation (0 = default)")
		anscache    = flag.Bool("anscache", false, "answer repeated or provably-contained queries from a bounded per-engine answer cache")
		anscacheCap = flag.Int("anscache-cap", 0, "answer-cache entries per engine (0 = default)")
		headerWait  = flag.Duration("read-header-timeout", 5*time.Second, "how long a connection may take to send its request headers")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight queries on SIGINT/SIGTERM")
		traceSample = flag.Int("trace-sample", 0, "keep a span tree for one request in N (0 = tracing off, 1 = every request)")
		traceRing   = flag.Int("trace-ring", 0, "recent traces kept for /tracez (0 = default)")
		slowQuery   = flag.Duration("slow-query", serve.DefaultSlowQuery, "log queries slower than this with per-phase timings (negative disables)")
		qstatsCap   = flag.Int("qstats-cap", 0, "query fingerprints tracked for /queryz (0 = default)")
		eventLog    = flag.String("eventlog", "", "write a structured JSONL wide-event log to this file (replaces the plain slow-query log line)")
		eventMax    = flag.Int64("eventlog-max-bytes", 0, "rotate the event log when it would exceed this size (0 = default; one predecessor file is kept)")
		eventSample = flag.Int("eventlog-sample", 0, "also log one successful request in N (0 = errors and slow queries only)")
		classes     classFlags
	)
	flag.Var(&classes, "class", "define a user class from an annotation file, e.g. -class nurse=nurse.ann (repeatable)")
	flag.Parse()

	if *docPath == "" {
		fatal(fmt.Errorf("need -doc"))
	}
	engineCfg := core.Config{
		Indexed:             *indexed,
		IndexThreshold:      *indexMin,
		AnswerCache:         *anscache,
		AnswerCacheCapacity: *anscacheCap,
	}
	reg, err := buildRegistry(*builtin, *dtdPath, classes, engineCfg)
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
	if err := xmltree.Validate(doc, reg.DTD()); err != nil {
		fatal(fmt.Errorf("document does not conform to the DTD: %v", err))
	}

	var events *eventlog.Writer
	if *eventLog != "" {
		events, err = eventlog.New(*eventLog, *eventMax)
		if err != nil {
			fatal(err)
		}
		defer events.Close()
	}
	srv := serve.New(reg, doc, serve.Config{
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		MaxInFlight:         *maxInFlight,
		TraceSampleEvery:    *traceSample,
		TraceRingSize:       *traceRing,
		SlowQueryThreshold:  *slowQuery,
		QueryStatsCapacity:  *qstatsCap,
		EventLog:            events,
		EventLogSampleEvery: *eventSample,
	})
	// A configured http.Server rather than bare ListenAndServe: the
	// header timeout unpins connections from clients that never finish
	// their request line, and the signal handler drains in-flight
	// queries instead of dropping them mid-evaluation — load-test cycles
	// (start, drive, SIGTERM, read counters) depend on both.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *headerWait,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		sig := <-sigs
		log.Printf("svserve: %v: draining in-flight queries (up to %v)", sig, *drain)
		// Flip /healthz to 503 first so load balancers stop routing new
		// work here while Shutdown waits for in-flight requests.
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("svserve: drain incomplete: %v", err)
		}
	}()
	log.Printf("svserve: serving %s (%d nodes, height %d) for classes %v on %s",
		*docPath, doc.Size(), doc.Height(), reg.Names(), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	log.Printf("svserve: shut down cleanly")
}

// buildRegistry assembles the user classes: either a built-in scenario
// (one class under its conventional name) or a DTD file plus one
// -class name=annfile per user class.
func buildRegistry(builtin, dtdPath string, classes classFlags, engineCfg core.Config) (*policy.Registry, error) {
	if builtin != "" {
		spec, err := cli.LoadSpec(builtin, "", "")
		if err != nil {
			return nil, err
		}
		reg := policy.NewRegistryWithConfig(spec.D, 0, engineCfg)
		if _, err := reg.DefineSpec(builtinClassNames[builtin], spec); err != nil {
			return nil, err
		}
		return reg, nil
	}
	if dtdPath == "" || len(classes) == 0 {
		return nil, fmt.Errorf("need -builtin, or -dtd with at least one -class name=annfile")
	}
	d, err := cli.LoadDTD(dtdPath)
	if err != nil {
		return nil, err
	}
	reg := policy.NewRegistryWithConfig(d, 0, engineCfg)
	for _, c := range classes {
		src, err := os.ReadFile(c.path)
		if err != nil {
			return nil, err
		}
		if _, err := reg.Define(c.name, string(src)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// classFlags is the repeatable "-class name=annfile" flag.
type classFlags []struct{ name, path string }

func (c *classFlags) String() string {
	parts := make([]string, len(*c))
	for i, e := range *c {
		parts[i] = e.name + "=" + e.path
	}
	return strings.Join(parts, ",")
}

func (c *classFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("expected name=annfile, got %q", v)
	}
	*c = append(*c, struct{ name, path string }{name, path})
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svserve:", err)
	os.Exit(1)
}
