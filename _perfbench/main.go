// Command perfbench is the repository's wall-clock benchmark. It drives
// the system through its public packages, one workload per process:
//
//	perfbench --workload crawl|crawl-chaos|analyze --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload's timed phase until S seconds
// have passed and reports the end-to-end metrics (medians over the
// repetitions). With --trace 1 it makes one untraced reference pass and
// one traced pass, and reports per-layer metrics measured from outside
// the program: spans around the calls into each package's exported
// functions, plus serial replays of the per-document layers. Every run
// checks the program's outputs; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// run.sh in this directory builds the command from source; README.md
// explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measurements; encoding/json sorts the keys.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the benchmark's final line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// record counts one checked repetition; a non-empty msg is its failed
// check. It reports whether the repetition passed.
func (r *result) record(msg string) bool {
	r.Attempted++
	if msg != "" {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(os.Stderr, "check failed: %s\n", msg)
	}
	return msg == ""
}

// minRepeats is the fewest timed repetitions of an untraced run.
const minRepeats = 3

// runConfig is what the command line asks for.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	untraced func(runConfig) (*result, error)
	traced   func(runConfig) (*result, error)
}{
	"crawl":       {untraced: runCrawl(false), traced: traceCrawl(false)},
	"crawl-chaos": {untraced: runCrawl(true), traced: traceCrawl(true)},
	"analyze":     {untraced: runAnalyze, traced: traceAnalyze},
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: crawl, crawl-chaos or analyze")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (inputs are a pure function of it)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time of an untraced run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	run := w.untraced
	if cfg.trace {
		run = w.traced
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	fmt.Printf("fingerprint %s\n", fingerprint())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// parallelism is the degree of parallelism every workload uses: shard
// workers and executor DoP never exceed the machine's CPU count.
func parallelism() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// fingerprint describes the machine a result was measured on.
func fingerprint() string {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(fp) // a map of strings and ints always encodes
	return string(b)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
