// Command perfbench is the LANDLORD serving benchmark. It starts real
// landlordd processes from the shipped example configs, drives one
// named workload against them from this single process, checks every
// response, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload, then replays its request stream in-process through the
// layers' public functions with a span around each call, and reports
// the per-layer metrics. Every run also writes a run record under
// .bench_build/perfbench/runs/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/pkggraph"
)

type trafficKind int

const (
	trafficPool   trafficKind = iota // fixed pool drawn uniformly
	trafficRepeat                    // fresh specs, each repeated
)

// workload is one named traffic mix and the deployment it runs on.
type workload struct {
	name  string
	fleet bool   // master + two agents instead of one standalone daemon
	fsync string // "" keeps the example config's policy
	// capacityRepos sets capacity_gb to this multiple of the
	// repository size; 0 keeps the example config's capacity.
	capacityRepos float64

	traffic     trafficKind
	closeBodies bool // bodies carry initial selections with close:true
	pool        int  // trafficPool: specs in the pool
	repeats     int  // trafficRepeat: requests per spec
	block       int  // trafficRepeat: specs shuffled together
	prefix      int  // trafficRepeat: serial warm-up requests

	// rate is the fixed-rate phase's Poisson arrival rate in requests
	// per second, fixed here so every run offers the same load: under a
	// quarter of the saturation throughput measured on a 2-CPU machine
	// (2970, 1590 and 780 requests per second), so that the open loop
	// still keeps up when the machine runs three times slower.
	rate float64
	// satGuess sizes the generated stream for the saturation phase.
	satGuess float64
	// traceRequests bounds the timed requests the traced replay uses.
	traceRequests int
}

var workloads = []workload{
	{
		// The example's 2048 GB holds only ~43 of the pool's pre-closed
		// images (~48 GB each, and conflicting core versions keep them
		// from merging), so LRU would turn every repeat into an insert;
		// ten repository sizes (~4.4 TB) make the pool fit.
		name: "warm-hits", capacityRepos: 10, traffic: trafficPool, pool: 50,
		rate: 700, satGuess: 2500, traceRequests: 2000,
	},
	{
		name: "churn", fsync: "always", capacityRepos: 1.4,
		traffic: trafficRepeat, closeBodies: true, repeats: 5, block: 50, prefix: 200,
		rate: 375, satGuess: 1300, traceRequests: 1000,
	},
	{
		name: "fleet", fleet: true, capacityRepos: 1,
		traffic: trafficRepeat, closeBodies: true, repeats: 10, block: 100, prefix: 200,
		rate: 180, satGuess: 600, traceRequests: 1000,
	},
}

// tailLen is the serial requests each recovery round sends between its
// checkpoint and the kill: one shuffle block on repeat traffic.
func (w workload) tailLen() int {
	if w.traffic == trafficRepeat {
		return w.block * w.repeats
	}
	return poolTail
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	root      string
	landlordd string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one benchmark run and returns the exit code; the result
// line goes to stdout, everything else to standard error.
func run(args []string, stdout io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: warm-hits, churn or fleet")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds (fixed-rate plus saturation phase)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced in-process replay")
	fs.StringVar(&o.root, "root", ".", "checkout root holding examples/")
	fs.StringVar(&o.landlordd, "landlordd", "", "landlordd binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 || o.landlordd == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (warm-hits, churn, fleet), --seconds >= 1 and --landlordd\n")
		return 2
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	// Fewer collections in the load generator: its pauses would show
	// up as generator lag and request latency.
	debug.SetGCPercent(400)

	out := filepath.Join(o.root, ".bench_build", "perfbench")
	registry := filepath.Join(out, "daemons.json")
	if err := os.MkdirAll(filepath.Join(out, "runs"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkStale(registry); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to start: %v\n", err)
		return 1
	}
	// Run directories left by a run that was killed outright.
	if old, err := filepath.Glob(filepath.Join(out, "run-*")); err == nil {
		for _, d := range old {
			os.RemoveAll(d)
		}
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	p := &procs{bin: o.landlordd, dir: dir, registry: registry, maxprocs: nproc, live: map[*daemon]bool{}}
	defer p.killAll()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		p.killAll()
		os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		os.Exit(1)
	}()

	rec, res, err := runWorkload(o, w, p, dir)
	p.killAll()
	if err != nil {
		// The run directory keeps the daemons' logs for diagnosis; the
		// next run removes it.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v (logs in %s)\n", w.name, err, dir)
		if errors.Is(err, errLate) {
			return 3
		}
		return 1
	}
	os.RemoveAll(dir)
	rec.Commit = commitOf(o.root)
	rec.GoVersion = runtime.Version()
	rec.NProc = nproc
	rec.LoadGOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.DaemonGOMAXPROCS = nproc
	rec.Result = res
	recPath := filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, trace))
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(recPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing run record: %v\n", err)
		}
	}
	summarize(rec)
	line, _ := json.Marshal(res) // plain structs and float64s always encode
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// commitOf names the checked-out commit when the checkout is a git
// repository.
func commitOf(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runRecord is everything one run measured, written as JSON beside
// the result line.
type runRecord struct {
	Workload         string    `json:"workload"`
	Seed             int64     `json:"seed"`
	Seconds          int       `json:"seconds"`
	Trace            bool      `json:"trace"`
	Commit           string    `json:"commit"`
	GoVersion        string    `json:"go_version"`
	NProc            int       `json:"nproc"`
	LoadGOMAXPROCS   int       `json:"load_generator_gomaxprocs"`
	DaemonGOMAXPROCS int       `json:"daemon_gomaxprocs"`
	Connections      int       `json:"connections"`
	SetupRuns        []float64 `json:"setup_runs_s"`

	OfferedRPS  float64        `json:"offered_rps"`
	AchievedRPS float64        `json:"achieved_rps"`
	Slices      []sliceRecord  `json:"fixed_rate_slices"`
	LagP50MS    pct            `json:"generator_lag_p50_ms"`
	LagP99MS    pct            `json:"generator_lag_p99_ms"`
	Latency     latencyStats   `json:"latency_ms"`
	FixedOps    map[string]int `json:"fixed_rate_op_mix"`
	SatOps      map[string]int `json:"saturation_op_mix"`
	SatRequests int            `json:"saturation_requests"`
	// SatWindowsRPS is the saturation phase's throughput in each second.
	SatWindowsRPS []float64 `json:"saturation_rps_by_second"`
	RecoveryRuns  []float64 `json:"recovery_runs_s"`
	FailRate      float64   `json:"fail_rate"`

	EndToEnd map[string]metric `json:"end_to_end"`
	Layers   *layerReport      `json:"layers,omitempty"`
	Failures []string          `json:"correctness_failures,omitempty"`
	Result   result            `json:"result"`
}

// sliceRecord is one fixed-rate slice's generator lag: its mean, and
// the share of requests handed over more than lateLagMS after their due
// time. A late slice is discarded with its saturation slice.
type sliceRecord struct {
	Requests  int     `json:"requests"`
	LagMeanMS float64 `json:"lag_mean_ms"`
	LateShare float64 `json:"late_share"`
	Discarded bool    `json:"discarded"`
}

func summarize(rec *runRecord) {
	names := make([]string, 0, len(rec.EndToEnd))
	for n := range rec.EndToEnd {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d offered=%.0f/s achieved=%.1f/s lag_p99=%.3fms fixed_ops=%v sat_ops=%v\n",
		rec.Workload, rec.Seed, rec.OfferedRPS, rec.AchievedRPS, rec.LagP99MS.Value, rec.FixedOps, rec.SatOps)
	for _, n := range names {
		m := rec.EndToEnd[n]
		fmt.Fprintf(os.Stderr, "  %-22s %12.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  %-22s %12.4f ms (median of %d windows)\n",
		"latency_p90_ms", rec.Latency.P90, len(rec.Latency.Windows))
	fmt.Fprintf(os.Stderr, "  %-22s %12.4f ms (%d samples, %d beyond it)\n",
		"latency_p99_ms", rec.Latency.P99.Value, rec.Latency.P99.Samples, rec.Latency.P99.Beyond)
	for k, s := range rec.Slices {
		if s.Discarded {
			fmt.Fprintf(os.Stderr, "  slice %d discarded: %.1f%% of its requests handed over more than %.0f ms late\n",
				k, 100*s.LateShare, lateLagMS)
		}
	}
	if rec.Layers != nil {
		rec.Layers.print()
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", f)
	}
}

// loadRepo generates the repository the example site config names, as
// the daemons do at start-up.
func loadRepo(root string) (*pkggraph.Repo, error) {
	site, err := config.Load(filepath.Join(root, "examples", "site.json"))
	if err != nil {
		return nil, err
	}
	return site.OpenRepo()
}

func phaseDurations(seconds int) (fixed, sat time.Duration) {
	total := time.Duration(seconds) * time.Second
	fixed = total * 6 / 10
	return fixed, total - fixed
}
