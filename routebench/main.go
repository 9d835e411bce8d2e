// Command routebench is routelab's end-to-end benchmark. It builds
// worlds and serves them through the real service stack in-process,
// drives one of three named workloads from a seed, checks every output
// it measures, and prints one JSON result line:
//
//	routebench --workload reproduce --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the
// workload with spans recorded around every call into a layer and
// reports the per-layer metrics instead (see README.md). The benchmark
// adds no instrumentation to the program: it times calls from outside
// and reads the obs registry, obs stage events, the X-Routelab-Cache
// header and runtime.MemStats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workload runs one named workload. The tracer is nil for untraced
// runs; layer metrics are filled only when it is not.
type workload func(env *runEnv) (*report, error)

var workloads = map[string]workload{
	"reproduce":   runReproduce,
	"serve-miss":  runServeMiss,
	"fleet-churn": runFleetChurn,
}

// runEnv is what a workload gets: its seed, its measuring budget, the
// repository root it reads goldens from, and the tracer (nil when
// untraced).
type runEnv struct {
	seed    int64
	seconds float64
	root    string
	tr      *tracer
}

// report is a workload's outcome before emission.
type report struct {
	problems  []string // correctness failures; any makes the run incorrect
	attempted int64
	failed    int64
	e2e       map[string]float64
	layer     map[string]float64
	// primary names the end-to-end metric the tracing overhead is
	// judged on.
	primary string
}

func newReport(primary string) *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, primary: primary}
}

// fail records a correctness problem.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further problems suppressed)")
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: reproduce, serve-miss, fleet-churn")
	seed := fs.Int64("seed", 1, "workload seed (inputs derive from it)")
	seconds := fs.Float64("seconds", 15, "measuring budget of one run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository root (goldens, span output)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "routebench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "routebench: --trace must be 0 or 1\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %s is not the repository root: %v\n", *root, err)
		return 2
	}
	prov := newProvenance(*root, *name, *seed, *trace)
	pb, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %v\n", err)
		return 1
	}
	fmt.Println(string(pb))

	env := &runEnv{seed: *seed, seconds: *seconds, root: *root}
	rep, err := run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	problems := rep.problems
	if *trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{finite(rep.e2e[m.name]), m.unit}
		}
	} else {
		env.tr = newTracer()
		env.tr.listen()
		traced, err := run(env)
		env.tr.stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "routebench: %s (traced): %v\n", *name, err)
			return 1
		}
		problems = append(problems, traced.problems...)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if base := rep.e2e[rep.primary]; base > 0 {
			traced.layer["bench.tracing_overhead_ratio"] = traced.e2e[rep.primary]/base - 1
		}
		// The tail latency comes from the untraced pass, like every
		// end-to-end figure; it is reported here because on a shared VM
		// it varies several-fold with the host's load (README.md).
		traced.layer["bench.latency_p99_ms"] = rep.e2e["latency_p99_ms"]
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{finite(traced.layer[m.name]), m.unit}
		}
		out := filepath.Join(*root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := env.tr.write(out, prov); err != nil {
			fmt.Fprintf(os.Stderr, "routebench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "routebench: spans written to %s\n", out)
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "routebench: INCORRECT: %s\n", p)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// finite keeps NaN/Inf out of the JSON result (encoding/json refuses
// them); a metric a run could not measure reads 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// deadline is the end of a measuring budget that started now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// logf reports progress on stderr; stdout carries only the provenance
// and result lines.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "routebench: "+format+"\n", args...)
}
