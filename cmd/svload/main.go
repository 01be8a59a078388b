// Command svload load-tests the security-view query server: it ramps a
// weighted query mix through a sequence of load levels against either an
// in-process serve.Server or a running svserve (-url), classifies every
// response (200/400/429/500/504), and writes a JSON report of
// throughput, latency percentiles, and rejection counts per level.
//
// The paper (§6) measures single-query rewriting and evaluation cost;
// svload measures the serving extension's claim instead — that under
// overload, admission control (429) keeps the latency of admitted
// queries bounded. The report's "finding" section states exactly that:
// at the most saturated level, rejections are nonzero while the
// admitted p99 stays under the per-request deadline.
//
// Usage:
//
//	svload -builtin hospital -levels 4,16,64 -duration 2s -out BENCH_svload.json
//	svload -builtin fig7 -gen-repeat 3 -rates 200,1000,5000
//	svload -url http://localhost:8344 -builtin hospital -levels 8,32
//
// The default mix per scenario spans cheap label paths, descendant /
// recursive-view queries, and qualifier-heavy queries; override it with
// repeatable -query name:weight:class:query[:param=value,...] flags.
// -zipf skews the mix's popularity (a few hot queries dominate, as in
// real query logs) and -anscache turns on the in-process engines'
// semantic answer cache — together they form the repeated-query
// scenario that measures the answer cache's effect:
//
//	svload -builtin hospital -zipf 1.2 -anscache -levels 16 -duration 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/dtds"
	"repro/internal/loadgen"
	"repro/internal/policy"
	"repro/internal/qstats"
	"repro/internal/serve"
	"repro/internal/xmlgen"
	"repro/internal/xmltree"
)

func main() {
	var (
		builtin     = flag.String("builtin", "hospital", "scenario: hospital, hospital-large, adex, fig7, or forum")
		docPath     = flag.String("doc", "", "XML document file (default: generate one for the scenario)")
		genSeed     = flag.Int64("gen-seed", 1, "document generator seed")
		genRepeat   = flag.Int("gen-repeat", 0, "document generator branching factor (0 = scenario default)")
		targetURL   = flag.String("url", "", "drive a running svserve at this base URL instead of in-process")
		levels      = flag.String("levels", "4,16,64", "comma-separated closed-loop concurrency levels")
		rates       = flag.String("rates", "", "comma-separated open-loop request rates (rps); overrides -levels")
		duration    = flag.Duration("duration", 2*time.Second, "wall time per level")
		timeout     = flag.Duration("timeout", 250*time.Millisecond, "per-request evaluation deadline")
		maxInFlight = flag.Int("max-inflight", 16, "in-process server admission limit (excess gets 429)")
		indexed     = flag.Bool("indexed", true, "in-process engines answer large-document descendant queries from a cached label index")
		anscache    = flag.Bool("anscache", false, "in-process engines answer repeated or provably-contained queries from a semantic answer cache")
		zipf        = flag.Float64("zipf", 0, "Zipf-skew the mix's popularity with this exponent (0 = keep the mix's own weights); pair with -anscache for the repeated-query scenario")
		backoff     = flag.Duration("reject-backoff", time.Millisecond, "closed-loop pause after a 429 before retrying (negative = spin)")
		seed        = flag.Int64("seed", 1, "load-schedule seed")
		out         = flag.String("out", "BENCH_svload.json", "report file (\"-\" for stdout only)")
		quiet       = flag.Bool("q", false, "suppress the per-level progress table")
	)
	var queryFlags mixFlags
	flag.Var(&queryFlags, "query", "mix entry name:weight:class:query[:param=value,...] (repeatable; replaces the default mix)")
	flag.Parse()

	mix := loadgen.Mix(queryFlags)
	if len(mix) == 0 {
		var err error
		mix, err = defaultMix(*builtin)
		if err != nil {
			fatal(err)
		}
	}
	mix = loadgen.ZipfMix(mix, *zipf)

	var target loadgen.Target
	var srv *serve.Server
	scenarioDoc := ""
	var doc *xmltree.Document
	if *targetURL != "" {
		target = loadgen.URLTarget{BaseURL: strings.TrimRight(*targetURL, "/")}
		scenarioDoc = *targetURL
	} else {
		reg, d, err := buildScenario(*builtin, *docPath, *genSeed, *genRepeat, core.Config{
			Indexed:     *indexed,
			AnswerCache: *anscache,
		})
		if err != nil {
			fatal(err)
		}
		doc = d
		srv = serve.New(reg, doc, serve.Config{
			DefaultTimeout: *timeout,
			MaxTimeout:     2 * *timeout,
			MaxInFlight:    *maxInFlight,
		})
		target = loadgen.HandlerTarget{Handler: srv.Handler()}
		scenarioDoc = fmt.Sprintf("generated(%s, seed=%d)", *builtin, *genSeed)
		if *docPath != "" {
			scenarioDoc = *docPath
		}
	}

	rep := report{
		Tool:        "svload",
		Scenario:    *builtin,
		Document:    scenarioDoc,
		TimeoutNs:   int64(*timeout),
		DurationNs:  int64(*duration),
		MaxInFlight: *maxInFlight,
		Mix:         mix,
		Zipf:        *zipf,
		AnswerCache: *anscache,
	}
	if doc != nil {
		rep.DocNodes, rep.DocHeight = doc.Size(), doc.Height()
	}

	// Allocation accounting only makes sense in-process: settle the heap
	// first so the deltas measure the load, not scenario construction.
	var memBefore runtime.MemStats
	if srv != nil {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}

	base := loadgen.Config{Mix: mix, Duration: *duration, Timeout: *timeout, RejectBackoff: *backoff, Seed: *seed}
	ctx := context.Background()
	if *rates != "" {
		for _, rate := range parseFloats(*rates) {
			cfg := base
			cfg.RateRPS = rate
			res := runLevel(ctx, target, cfg, *quiet)
			res.Mode, res.OfferedRPS = "open", rate
			rep.Levels = append(rep.Levels, res)
		}
	} else {
		for _, c := range parseInts(*levels) {
			cfg := base
			cfg.Concurrency = c
			res := runLevel(ctx, target, cfg, *quiet)
			res.Mode, res.Concurrency = "closed", c
			rep.Levels = append(rep.Levels, res)
		}
	}
	if len(rep.Levels) == 0 {
		fatal(fmt.Errorf("no load levels (check -levels / -rates)"))
	}

	rep.Finding = findVerdict(rep.Levels, *timeout)
	if srv != nil {
		st := srv.Stats().Server
		rep.Server = &st
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		rep.Mem = newMemReport(memBefore, memAfter, st.Requests)
	}
	rep.TopQueries = topFingerprints(srv, *targetURL)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *out != "-" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "svload: wrote %s\n", *out)
	} else {
		fmt.Println(string(blob))
	}
	if !*quiet {
		f := rep.Finding
		fmt.Fprintf(os.Stderr, "svload: saturated level %s: %d rejected, admitted p99 %.2fms (deadline %v, bounded=%v)\n",
			f.SaturatedLevel, f.Rejected, f.AdmittedP99Us/1000, *timeout, f.AdmittedP99UnderDeadline)
	}
	if f := rep.Finding; f.Rejected > 0 && !f.AdmittedP99UnderDeadline {
		// Overload was reached but the latency bound did not hold — the
		// one outcome the admission-control design forbids.
		os.Exit(2)
	}
}

// report is the BENCH_svload.json schema.
type report struct {
	Tool        string             `json:"tool"`
	Scenario    string             `json:"scenario"`
	Document    string             `json:"document"`
	DocNodes    int                `json:"doc_nodes,omitempty"`
	DocHeight   int                `json:"doc_height,omitempty"`
	TimeoutNs   int64              `json:"timeout_ns"`
	DurationNs  int64              `json:"duration_per_level_ns"`
	MaxInFlight int                `json:"max_in_flight"`
	Zipf        float64            `json:"zipf,omitempty"`
	AnswerCache bool               `json:"answer_cache,omitempty"`
	Mix         loadgen.Mix        `json:"mix"`
	Levels      []loadgen.Result   `json:"levels"`
	Finding     finding            `json:"finding"`
	Server      *serve.ServerStats `json:"server_stats,omitempty"`
	Mem         *memReport         `json:"mem_stats,omitempty"`
	// TopQueries is the server's five heaviest /queryz fingerprints by
	// cumulative eval time, so the bench trajectory attributes a
	// regression to the query shapes that caused it.
	TopQueries []qstats.FingerprintStats `json:"top_queries,omitempty"`
}

// topFingerprints snapshots the five heaviest fingerprint rows:
// directly from the in-process server's registry, or over HTTP
// (/queryz?n=5) when driving a remote svserve. Best-effort against a
// remote — an old server without /queryz just yields no section.
func topFingerprints(srv *serve.Server, baseURL string) []qstats.FingerprintStats {
	if srv != nil {
		return srv.QueryStats().Top(5, qstats.SortEvalTime)
	}
	resp, err := http.Get(strings.TrimRight(baseURL, "/") + "/queryz?n=5")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var qz serve.QueryzResponse
	if err := json.NewDecoder(resp.Body).Decode(&qz); err != nil {
		return nil
	}
	return qz.Top
}

// memReport is the in-process allocation cost of serving the whole run:
// runtime.MemStats deltas from just before the first level (post-GC) to
// just after the last, normalized per admitted request. The ordinal
// bitset work is judged on this section — a representation change that
// moves allocs_per_request or gc_cycles shows up here without needing a
// profiler.
type memReport struct {
	GCCycles        uint32  `json:"gc_cycles"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	AllocsPerReq    float64 `json:"allocs_per_request"`
	BytesPerReq     float64 `json:"bytes_per_request"`
}

func newMemReport(before, after runtime.MemStats, requests uint64) *memReport {
	m := &memReport{
		GCCycles:        after.NumGC - before.NumGC,
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:         after.Mallocs - before.Mallocs,
	}
	if requests > 0 {
		m.AllocsPerReq = float64(m.Mallocs) / float64(requests)
		m.BytesPerReq = float64(m.TotalAllocBytes) / float64(requests)
	}
	return m
}

// finding is the overload verdict: at the most-rejecting level, is the
// admitted-query p99 still under the per-request deadline?
type finding struct {
	SaturatedLevel           string  `json:"saturated_level"`
	Rejected                 uint64  `json:"rejected"`
	AdmittedP99Us            float64 `json:"admitted_p99_us"`
	DeadlineUs               int64   `json:"deadline_us"`
	AdmittedP99UnderDeadline bool    `json:"admitted_p99_under_deadline"`
}

func findVerdict(levels []loadgen.Result, deadline time.Duration) finding {
	sat := levels[0]
	for _, l := range levels[1:] {
		if l.Rejected >= sat.Rejected {
			sat = l
		}
	}
	label := fmt.Sprintf("closed/c=%d", sat.Concurrency)
	if sat.Mode == "open" {
		label = fmt.Sprintf("open/rps=%g", sat.OfferedRPS)
	}
	return finding{
		SaturatedLevel:           label,
		Rejected:                 sat.Rejected,
		AdmittedP99Us:            sat.Admitted.P99Us,
		DeadlineUs:               deadline.Microseconds(),
		AdmittedP99UnderDeadline: sat.Admitted.P99Us < float64(deadline.Microseconds()),
	}
}

func runLevel(ctx context.Context, target loadgen.Target, cfg loadgen.Config, quiet bool) loadgen.Result {
	res, err := loadgen.Run(ctx, target, cfg)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		level := fmt.Sprintf("c=%d", cfg.Concurrency)
		if cfg.RateRPS > 0 {
			level = fmt.Sprintf("rps=%g", cfg.RateRPS)
		}
		fmt.Fprintf(os.Stderr,
			"svload: %-10s %8.0f req/s  ok=%-7d 429=%-7d 504=%-5d p50=%.2fms p95=%.2fms p99=%.2fms (admitted)\n",
			level, res.ThroughputRPS, res.OK, res.Rejected, res.Timeouts,
			res.Admitted.P50Us/1000, res.Admitted.P95Us/1000, res.Admitted.P99Us/1000)
	}
	return res
}

// buildScenario assembles the in-process registry and document for one
// built-in scenario, generating a document when none is supplied.
func buildScenario(builtin, docPath string, genSeed int64, genRepeat int, engineCfg core.Config) (*policy.Registry, *xmltree.Document, error) {
	var spec *access.Spec
	var class string
	var gen func(repeat int) *xmltree.Document
	switch builtin {
	case "hospital":
		spec, class = dtds.NurseSpec(), "nurse"
		gen = func(r int) *xmltree.Document { return dtds.GenerateHospital(genSeed, defaultRepeat(r, 8)) }
	case "hospital-large":
		// The structural-index serving workload: same policy, but the
		// generated document is 10k+ nodes so descendant steps dominate.
		spec, class = dtds.NurseSpec(), "nurse"
		gen = func(r int) *xmltree.Document { return dtds.GenerateHospital(genSeed, defaultRepeat(r, 48)) }
	case "adex":
		spec, class = dtds.AdexSpec(), "buyer"
		gen = func(r int) *xmltree.Document { return dtds.GenerateAdex(genSeed, defaultRepeat(r, 8)) }
	case "fig7":
		spec, class = dtds.Fig7Spec(), "user"
		gen = func(r int) *xmltree.Document {
			return xmlgen.Generate(dtds.Fig7(), xmlgen.Config{
				Seed: genSeed, MinRepeat: 1, MaxRepeat: defaultRepeat(r, 3), MaxDepth: 12,
				Value: func(rng *rand.Rand, label string) string { return fmt.Sprintf("%s-%d", label, rng.Intn(50)) },
			})
		}
	case "forum":
		spec, class = dtds.ForumGuestSpec(), "guest"
		gen = func(r int) *xmltree.Document { return dtds.GenerateForum(genSeed, defaultRepeat(r, 3), 10) }
	default:
		return nil, nil, fmt.Errorf("unknown scenario %q (want hospital, hospital-large, adex, fig7, or forum)", builtin)
	}
	reg := policy.NewRegistryWithConfig(spec.D, 0, engineCfg)
	if _, err := reg.DefineSpec(class, spec); err != nil {
		return nil, nil, err
	}
	var doc *xmltree.Document
	if docPath != "" {
		f, err := os.Open(docPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		doc, err = xmltree.Parse(f)
		if err != nil {
			return nil, nil, err
		}
	} else {
		doc = gen(genRepeat)
	}
	if err := xmltree.Validate(doc, reg.DTD()); err != nil {
		return nil, nil, fmt.Errorf("document does not conform to the %s DTD: %v", builtin, err)
	}
	return reg, doc, nil
}

func defaultRepeat(r, def int) int {
	if r > 0 {
		return r
	}
	return def
}

// defaultMix returns the scenario's standard mix (forum shares the
// recursive shape with a different class name).
func defaultMix(builtin string) (loadgen.Mix, error) {
	if builtin == "forum" {
		return loadgen.ForumMix("guest"), nil
	}
	return loadgen.MixFor(builtin)
}

// mixFlags is the repeatable -query flag.
type mixFlags []loadgen.Entry

func (m *mixFlags) String() string {
	parts := make([]string, len(*m))
	for i, e := range *m {
		parts[i] = e.Name
	}
	return strings.Join(parts, ",")
}

func (m *mixFlags) Set(v string) error {
	e, err := loadgen.ParseEntry(v)
	if err != nil {
		return err
	}
	*m = append(*m, e)
	return nil
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad level %q", part))
		}
		out = append(out, n)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f <= 0 {
			fatal(fmt.Errorf("bad rate %q", part))
		}
		out = append(out, f)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svload:", err)
	os.Exit(1)
}
