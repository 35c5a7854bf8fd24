// Command perfbench is the repository's benchmark: it runs one workload
// against real xtalkd daemons and prints every end-to-end metric, or, with
// -trace 1, replays the workload's inputs in-process with spans around each
// layer's public functions and prints the per-layer split.
//
//	perfbench -workload churn-fleet -seed 1 -seconds 45 -trace 0 \
//	    -config perfbench/config.json -daemon .bench_build/xtalkd -workdir .bench_build
//
// run.sh builds perfbench and the daemon and supplies the last three flags.
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// METRICS.md maps each metric to its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// workloadConfig is one workload's entry in config.json: the fixed offered
// rate and latency limit are set once there and never moved.
type workloadConfig struct {
	Seed        int64    `json:"seed"`
	TraceDigest string   `json:"trace_digest"`
	RateRPS     float64  `json:"rate_rps"`
	LimitMS     float64  `json:"limit_ms"`
	FreshShare  float64  `json:"fresh_share"`
	DaemonFlags []string `json:"daemon_flags"`
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings.
type bench struct {
	name    string
	w       workloadConfig
	seed    int64
	seconds float64
	bin     string
	dir     string // per-run scratch directory inside the checkout
	workdir string // where the traced run leaves its spans
	tracing bool   // traced run: one set-up, no goodput search
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: warm-zipf, cold-mix or churn-fleet")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 45, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		cfgPath  = flag.String("config", "perfbench/config.json", "workload configuration")
		daemon   = flag.String("daemon", ".bench_build/xtalkd", "xtalkd binary")
		workdir  = flag.String("workdir", ".bench_build", "scratch directory for daemon stores and logs")
	)
	flag.Parse()
	runtime.GOMAXPROCS(lanes)
	if *traced == 0 {
		// The generator allocates per request; collecting less often keeps
		// its own pauses out of the latencies it measures. A traced run
		// keeps the default, which the in-process twin of the daemon shares.
		debug.SetGCPercent(400)
	}
	res, err := run(*workload, *seed, *seconds, *traced == 1, *cfgPath, *daemon, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, seed int64, seconds int, traced bool, cfgPath, daemonBin, workdir string) (*result, error) {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg map[string]workloadConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", cfgPath, err)
	}
	w, ok := cfg[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if _, err := os.Stat(daemonBin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	bin, err := filepath.Abs(daemonBin)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workdir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{name: name, w: w, seed: seed, seconds: float64(seconds), bin: bin, dir: dir, workdir: workdir, tracing: traced}
	var res *result
	switch {
	case traced:
		res, err = b.traced()
	case name == "cold-mix":
		res, err = b.coldMix()
	default:
		res, err = b.openLoop()
	}
	if err != nil {
		// The daemons' logs stay behind for a failed run.
		return nil, fmt.Errorf("%w (daemon logs in %s)", err, dir)
	}
	_ = os.RemoveAll(dir) // a leftover scratch directory does not change the result
	return res, nil
}

// logf reports progress and sample counts on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (b *bench) secondsDur(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}
