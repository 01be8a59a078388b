// Command servebench is the repository's serving benchmark. For one
// workload it builds the hospital serving stack (serve.New over a
// policy.Registry with svserve's defaults, behind a loopback TCP
// listener), drives it from the same process with a closed loop of
// nproc keep-alive connections, checks every response body against the
// §3.3 oracle (the query evaluated over the materialized view), and
// prints the end-to-end metrics. With --trace 1 it instead times calls
// into each layer's public functions from this package and prints the
// per-layer ledger; nothing inside the program is instrumented.
//
// Run it from the repository root through servebench/run.sh:
//
//	bash servebench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
//
// Human-readable lines go first; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/dtds"
)

// commit is set at link time by run.sh.
var commit = "unknown"

// setupReps is how many times a run builds the stack; setup_s is the
// median.
const setupReps = 21

type options struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	// spansDir receives the traced run's span dump.
	spansDir string
	// wrap, when set, wraps the served handler (tests inject faults).
	wrap func(http.Handler) http.Handler
	log  io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-small, scan-large, cold-plans or zipf-contain")
		seed    = flag.Int64("seed", 1, "seed of the request sequence")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs the traced ledger instead of the end-to-end measurement")
		spans   = flag.String("spans-dir", ".bench_build", "directory for the traced run's span dump")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	res, err := execute(options{
		workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spansDir: *spans, log: os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

func execute(o options) (*result, error) {
	st, err := newStamp(o)
	if err != nil {
		return nil, err
	}
	line, _ := json.Marshal(st)
	fmt.Fprintf(o.log, "stamp %s\n", line)
	// The document is generated once and handed to every set-up as XML
	// bytes, so setup_s covers loading it as svserve does.
	xml := []byte(dtds.GenerateHospital(docSeed, o.workload.repeat).XML())
	if o.trace {
		return traced(o, xml, st)
	}
	return untraced(o, xml)
}

// setUps builds the stack setupReps times and keeps the last one.
func setUps(o options, xml []byte) (*stack, []setupTimes, error) {
	var s *stack
	times := make([]setupTimes, setupReps)
	for i := range times {
		if s != nil {
			s.close()
		}
		// Start each set-up from a collected heap, so one rep does not
		// pay for the garbage of the last.
		runtime.GC()
		var err error
		s, times[i], err = setUp(xml, engineConfig(o.workload), o.wrap)
		if err != nil {
			return nil, nil, err
		}
	}
	return s, times, nil
}

// untraced measures the end-to-end metrics.
func untraced(o options, xml []byte) (*result, error) {
	w := o.workload
	s, times, err := setUps(o, xml)
	if err != nil {
		return nil, err
	}
	defer s.close()
	orc, err := newOracle(s.doc)
	if err != nil {
		return nil, err
	}
	src, err := w.source(orc, o.seed)
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	pre := drive(s.base, src, clients, w.prefix, time.Time{})
	heap := liveHeapMB()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run := drive(s.base, src, clients, 0, time.Now().Add(o.seconds))
	runtime.ReadMemStats(&m1)
	st, err := s.state()
	if err != nil {
		return nil, err
	}

	windows, window := windowsOf(o.seconds)
	rps, p50, p90 := windowed(run, windows, window)
	lat := make([]time.Duration, len(run.samples))
	for i, s := range run.samples {
		lat[i] = s.lat
	}
	sortDurations(lat)
	n := float64(run.attempted)
	setup := medianOf(times, func(t setupTimes) time.Duration { return t.total })
	// The result's metrics are set-up time and the per-request
	// allocation and retained-heap counts. Throughput and latency are
	// printed as a trajectory but not returned: they move with the
	// host's speed, which on a shared machine drifts between runs by
	// more than the largest bound a compared metric may have.
	metrics := map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"allocs_per_req": {float64(m1.Mallocs-m0.Mallocs) / n, "count"},
		"bytes_per_req":  {float64(m1.TotalAlloc-m0.TotalAlloc) / n, "B"},
		"heap_live_mb":   {heap, "MB"},
	}

	fmt.Fprintf(o.log, "workload %s: %d-node document, closed loop of %d keep-alive connections, %d prefix requests then %.1f s measured\n",
		w.name, s.doc.Size(), clients, pre.attempted, run.elapsed.Seconds())
	fmt.Fprintf(o.log, "requests %d attempted, %d correct, %d failed (failed_ratio %.6f)\n",
		run.attempted, run.ok, run.failed, float64(run.failed)/n)
	fmt.Fprintf(o.log, "wall throughput_rps %.1f, latency_p50_us %.1f, latency_p90_us %.1f (medians over %d windows of %v)\n",
		rps, p50, p90, windows, window)
	fmt.Fprintf(o.log, "wall whole phase, %d requests: %.1f correct answers/s, p50 %.1f us, p90 %.1f us, p99 %.1f us\n",
		len(lat), float64(run.ok)/run.elapsed.Seconds(), us(quantile(lat, 0.50)), us(quantile(lat, 0.90)), us(quantile(lat, 0.99)))
	printMetrics(o.log, metrics)
	line, _ := json.Marshal(st)
	fmt.Fprintf(o.log, "state %s\n", line)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(o.log, "state peak resident set %.0f MB\n", float64(ru.Maxrss)/1024)
	}
	if st.PlanMisses > 0 {
		fmt.Fprintf(o.log, "state rewrite memo: %.1f cells per plan-cache miss\n", float64(st.MemoCells)/float64(st.PlanMisses))
	}
	var all tally
	all.add(pre)
	all.add(run)
	if all.firstFailure != "" {
		fmt.Fprintf(o.log, "first failure: %s\n", all.firstFailure)
	}
	return &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: metrics}, nil
}

// windowsOf splits a measured phase into one-second windows; a phase
// shorter than two seconds is one window.
func windowsOf(d time.Duration) (int, time.Duration) {
	if d < 2*time.Second {
		return 1, d
	}
	n := int(d / time.Second)
	return n, d / time.Duration(n)
}

// liveHeapMB is the heap that survives collection: what caches and
// memos retain. Two cycles also empty sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func medianOf(times []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	d := make([]time.Duration, len(times))
	for i, t := range times {
		d[i] = f(t)
	}
	sortDurations(d)
	return d[len(d)/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func printMetrics(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-44s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
}

// stamp identifies the machine, toolchain and code a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	// Source is a SHA-256 over the module's Go sources and go.mod
	// files, which identifies the code where no git metadata exists.
	Source string `json:"source"`
}

func newStamp(o options) (stamp, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		Workload: o.workload.name, Seed: o.seed, Seconds: int(o.seconds / time.Second), Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit, Source: src,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go and go.mod file under root in path
// order, skipping hidden directories such as the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
