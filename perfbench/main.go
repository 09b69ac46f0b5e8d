// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every result, and prints its metrics.
//
//	perfbench --workload olap --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the workload through each layer's public functions with spans
// around every call and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. The lines before it are the human-readable report: the host
// and configuration, every metric with its unit, and (traced) each
// layer's self time. README.md lists the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer mirror BENCHMARK.json; a test keeps them equal.
var endToEnd = []string{"setup_s", "ops_per_s", "read_p50_ms", "peak_rss_mb"}

var perLayer = []string{
	"sqlfe.parse_us", "engine.prepare_us", "engine.plancache_hit_ratio",
	"sqlfe.snapshot_ms", "sqlfe.delta_rows", "sqlfe.compile_us",
	"physical.lower_us", "physical.exec_ms", "physical.fallbacks", "physical.fallbacks.group-key-not-int",
	"physical.join_inter_rows", "physical.join_est_err",
	"mal.exec_ms", "vector.q6_ms",
	"radix.build_ns_per_key", "radix.probe_ns_per_key", "radix.group_ns_per_key",
	"radix.partition_group.hcgroup", "radix.cluster_join.star5", "radix.parallel_sort.topn",
	"spill.files_per_query", "spill.bytes_per_query", "spill.live_files_after",
	"wal.fsyncs_per_commit", "wal.txs_per_flush", "wal.fsync_ms", "wal.append_us", "wal.durable_wait_ms",
	"server.overhead_us", "server.queued_max", "server.rejected",
	"trace.overhead_pct",
}

// runCfg is one invocation.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	work     string // scratch directory, removed when the run ends
}

var workloads = map[string]func(*runCfg) (*report, error){
	"olap":        func(c *runCfg) (*report, error) { return runOLAP(c, false) },
	"olap-spill":  func(c *runCfg) (*report, error) { return runOLAP(c, true) },
	"wire-mixed":  func(c *runCfg) (*report, error) { return runWire(c, true) },
	"wire-ingest": func(c *runCfg) (*report, error) { return runWire(c, false) },
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload: olap, olap-spill, wire-mixed or wire-ingest")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds (wire workloads: sets the fixed operation count)")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	scaleName := flag.String("scale", "full", "dataset scale: full or small")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory root")
	flag.Parse()

	run, ok := workloads[*name]
	sc, okScale := scales[*scaleName]
	if !ok || !okScale || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	rep, err := runWorkload(&runCfg{workload: *name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, sc: sc}, run, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	rep.print(os.Stdout)
	out, err := rep.result(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runWorkload runs one workload in a fresh scratch directory and applies
// the checks every workload shares: the scratch files are removed, no
// goroutine outlives the workload, and the peak RSS is recorded.
func runWorkload(c *runCfg, run func(*runCfg) (*report, error), workdir string) (*report, error) {
	g0 := runtime.NumGoroutine()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	c.work = work
	rep, err := run(c)
	if rmErr := os.RemoveAll(work); err == nil && rmErr != nil {
		err = fmt.Errorf("removing scratch directory: %w", rmErr)
	}
	if err != nil {
		return nil, err
	}
	if g := settleGoroutines(g0); g > g0 {
		rep.checkFail("goroutines: %d after the workload, %d before", g, g0)
	}
	kb, err := vmHWMKB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", float64(kb)/1024, "MB")
	rep.config = hostConfig(c)
	return rep, nil
}

// settleGoroutines waits up to 5s for the goroutine count to fall back
// to base (connections and pipelines wind down asynchronously after
// Close) and returns the last count seen.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= base || time.Now().After(deadline) {
			return g
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func vmHWMKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// hostConfig records what a result was measured on, so results from
// different hosts or settings are never compared silently.
func hostConfig(c *runCfg) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.Index(line, ":")+1:])
				break
			}
		}
	}
	budget := int64(0)
	if c.workload == "olap-spill" {
		budget = c.sc.SpillBytes
	}
	return map[string]any{
		"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "trace": c.trace, "scale": c.sc.Name,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "cpu": cpu,
		"engine_workers": engineWorkers, "server_workers": engineWorkers, "clients": wireClients,
		"mem_budget_bytes":   budget,
		"group_commit_every": groupCommitEvery.String(), "group_commit_batch": groupCommitBatch,
		"lineitem_rows": c.sc.LineItems, "fact_rows": c.sc.Facts, "dim_rows": c.sc.Dims,
		"orders_rows": c.sc.Orders, "customers": c.sc.Customers, "setup_reps": c.sc.SetupReps,
	}
}

// report collects one run's metrics, failures and check results.
type report struct {
	vals      map[string]float64
	units     map[string]string
	order     []string
	attempted int
	failed    int
	failures  []string // the first few failed operations
	checks    []string // failed post-run checks
	notes     []string // extra human-readable lines
	config    map[string]any
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name], r.units[name] = v, unit
}

// opFailed counts a failed or wrong operation.
func (r *report) opFailed(op string, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, op+": "+err.Error())
	}
}

func (r *report) checkFail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the final JSON line with exactly the named metrics.
func (r *report) result(names []string) ([]byte, error) {
	if r.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	m := map[string]metricOut{}
	for _, n := range names {
		v, ok := r.vals[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		m[n] = metricOut{Value: v, Unit: r.units[n]}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0 && len(r.checks) == 0, r.attempted, r.failed, m})
}

// print writes the human-readable report.
func (r *report) print(f io.Writer) {
	cfg, _ := json.Marshal(r.config) // a map of plain values always marshals
	fmt.Fprintf(f, "config %s\n", cfg)
	fmt.Fprintf(f, "%-40s %14d ops\n", "attempted", r.attempted)
	fmt.Fprintf(f, "%-40s %14.6f ratio\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	for _, s := range r.failures {
		fmt.Fprintf(f, "FAILED %s\n", s)
	}
	for _, s := range r.checks {
		fmt.Fprintf(f, "CHECK FAILED %s\n", s)
	}
	names := append([]string(nil), r.order...)
	sort.SliceStable(names, func(i, j int) bool { return names[i] < names[j] })
	for _, n := range names {
		fmt.Fprintf(f, "%-40s %14.4f %s\n", n, r.vals[n], r.units[n])
	}
	for _, s := range r.notes {
		fmt.Fprintln(f, s)
	}
}
