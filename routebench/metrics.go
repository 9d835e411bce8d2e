package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"routelab/internal/experiments"
)

// metricDef names one emitted metric and its unit. BENCHMARK.json lists
// the same names; TestMetricTablesMatchBenchmarkJSON keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of routelab sees, reported by every
// workload with --trace 0 (README.md gives each one's meaning per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"experiments_s", "s"},
	{"heap_live_mb", "MiB"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cold_touch_p50_ms", "ms"},
	{"resident_mb", "MiB"},
}

// serviceEndpoints are the endpoint families the serving workloads
// drive, each with its own handler/request metrics.
var serviceEndpoints = []string{"healthz", "classify", "as", "experiments", "whatif"}

// experimentNames lists every registered experiment except the "all"
// composite, sorted.
func experimentNames() []string {
	var out []string
	for _, n := range experiments.Names() {
		if n != "all" {
			out = append(out, n)
		}
	}
	return out
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there (no work done).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.build_ms", "ms"},
		{"scenario.self_ms", "ms"},
		{"scenario.stage_coverage_ratio", "ratio"},
		{"topology.generate_ms", "ms"},
		{"bgp.converge_historical_ms", "ms"},
		{"bgp.converge_current_ms", "ms"},
		{"bgp.rib_utilization", "ratio"},
		{"bgp.converge_events", "count"},
		{"bgp.converge_changes", "count"},
		{"bgp.intern_hit_ratio", "ratio"},
		{"bgp.fork_calls_per_request", "count"},
		{"bgp.fork_row_clones_per_fork", "count"},
		{"vantage.snapshots_ms", "ms"},
		{"inference.infer_ms", "ms"},
		{"atlas.campaign_ms", "ms"},
		{"runtime.alloc_mb_per_build", "MiB"},
		{"runtime.mallocs_per_build", "count"},
		{"runtime.alloc_mb_per_1k_requests", "MiB"},
		{"runtime.mallocs_per_1k_requests", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
	}
	for _, n := range experimentNames() {
		defs = append(defs, metricDef{"experiments." + n + "_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"classify.breakdown_ms", "ms"},
		metricDef{"whatif.compile_us", "us"},
		metricDef{"whatif.eval_p50_ms", "ms"},
		metricDef{"whatif.eval_p99_ms", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
	)
	for _, e := range serviceEndpoints {
		defs = append(defs, metricDef{"service.handler_ms." + e, "ms"})
	}
	for _, e := range serviceEndpoints {
		defs = append(defs, metricDef{"service.request_p50_ms." + e, "ms"})
	}
	defs = append(defs,
		metricDef{"service.transport_ms", "ms"},
		metricDef{"service.shed_total", "count"},
		metricDef{"service.errors_total", "count"},
		metricDef{"service.tenant_seal_ms", "ms"},
		metricDef{"service.store_builds_per_cycle", "count"},
		metricDef{"service.store_evictions_per_cycle", "count"},
		metricDef{"service.resident_bytes", "bytes"},
		metricDef{"service.churn_touch_p50_ms", "ms"},
		metricDef{"service.churn_read_p50_ms", "ms"},
		metricDef{"bench.generator_lag_p99_ms", "ms"},
		metricDef{"bench.tracing_overhead_ratio", "ratio"},
		metricDef{"bench.error_ratio", "ratio"},
		metricDef{"bench.latency_p99_ms", "ms"},
		metricDef{"bench.latency_samples", "count"},
		metricDef{"bench.latency_tail_quantile", "ratio"},
	)
	return defs
}()

// provenance is recorded with every emission: what ran, where, on what.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the git HEAD when the root is a git checkout, else
	// "tree:<sha256>" over the module's Go sources and go.mod (a
	// benchmark checkout need not be a repository).
	Commit string `json:"commit"`
}

func newProvenance(root, workload string, seed int64, trace int) provenance {
	return provenance{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commitOf(root),
	}
}

// commitOf resolves the git HEAD by reading .git directly, falling back
// to a digest of the source tree.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
					return f[0]
				}
			}
		}
	}
	return "tree:" + treeDigest(root)
}

// treeDigest hashes every .go file and go.mod under root (skipping
// hidden directories and build output) in path order.
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries just drop out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
