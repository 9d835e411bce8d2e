package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routelab/internal/classify"
	"routelab/internal/experiments"
	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
	"routelab/internal/spec"
)

// reproduceScale is the topology scale of the reproduce world: the test
// profile doubled (~680 ASes), big enough that full-RIB convergence
// dominates the build as it does at paper scale.
const reproduceScale = 0.2

// worldSeed is the master seed of every world the workloads build (the
// paper's, and the test and smoke corpus specs'). Worlds are fixed so
// that a run's cost does not depend on which world a seed happens to
// generate — some seeds generate worlds whose convergence oscillates
// and costs ten times more. The workload seed drives the inputs given
// to a world: experiment seeds, request mixes, what-if deltas.
const worldSeed = 2015

// goldenSeed and goldenExpSeed pin the correctness gate to the
// committed experiment goldens (test profile, experiment seed 7).
const (
	goldenSeed    = 2015
	goldenExpSeed = 7
)

// buildStages maps the per-layer metric of each serial build phase to
// the obs stage the program already times it under.
var buildStages = []struct{ metric, stage string }{
	{"topology.generate_ms", "scenario/topology"},
	{"bgp.converge_historical_ms", "scenario/converge-historical"},
	{"bgp.converge_current_ms", "scenario/converge-current"},
	{"vantage.snapshots_ms", "scenario/snapshots"},
	{"inference.infer_ms", "scenario/inference"},
	{"atlas.campaign_ms", "scenario/campaign"},
}

// runReproduce is the paper user's job: build the world, then run every
// registered experiment on it with the workload seed as the experiment
// seed, repeated until the measuring budget is spent (at least three
// repetitions). Every repetition's output must be byte-identical to the
// first's.
func runReproduce(env *runEnv) (*report, error) {
	rep := newReport("setup_s")
	names := experimentNames()
	if err := goldenGate(env, rep, names); err != nil {
		return nil, err
	}

	cfg, err := spec.ProfileConfig("test")
	if err != nil {
		return nil, err
	}
	cfg.Topology.Scale = reproduceScale
	cfg.Seed = worldSeed
	cfg.RoutingWorkers = 0 // every core

	var (
		builds, sweeps, cold, jobs sample
		perExp                     = map[string]sample{}
		digest0                    []byte
		s                          *scenario.Scenario
		acc                        buildAccount
		runs                       int
		sweepTotal                 time.Duration
	)
	stop := deadline(env.seconds)
	for i := 0; ; i++ {
		s = nil
		runtime.GC() // the previous world is garbage; do not bill its collection to this build
		t0 := time.Now()
		s, err = acc.build(env.tr, cfg, "scenario.Build")
		if err != nil {
			return nil, err
		}
		bw := time.Since(t0)
		rep.attempted++
		builds = append(builds, bw.Seconds())

		h := sha256.New()
		t1 := time.Now()
		for k, n := range names {
			var buf bytes.Buffer
			sp := env.tr.begin("experiments.Run/"+n, 0, 0)
			env.tr.setAmbient(sp)
			te := time.Now()
			err := experiments.Run(n, &buf, s, env.seed)
			d := time.Since(te)
			env.tr.setAmbient(0)
			env.tr.end(sp)
			rep.attempted++
			runs++
			if err != nil {
				rep.failed++
				rep.fail("experiment %s: %v", n, err)
				continue
			}
			perExp[n] = append(perExp[n], ms(d))
			if k == 0 {
				cold = append(cold, ms(bw+d))
			}
			fmt.Fprintf(h, "%s\x00%d\x00", n, buf.Len())
			h.Write(buf.Bytes())
		}
		sw := time.Since(t1)
		sweepTotal += sw
		sweeps = append(sweeps, sw.Seconds())
		jobs = append(jobs, ms(bw+sw))
		if sum := h.Sum(nil); digest0 == nil {
			digest0 = sum
		} else if !bytes.Equal(sum, digest0) {
			rep.fail("repetition %d: experiment output digest differs from repetition 0", i)
		}
		logf("reproduce: rep %d build %.3fs experiments %.3fs", i, bw.Seconds(), sw.Seconds())
		if i >= 2 && time.Now().Add(bw+sw).After(stop) {
			break
		}
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	heap := float64(m.HeapAlloc) / (1 << 20)
	// The byte-budget charge this world carries when a fleet serves it.
	tenant := service.New(s, service.Config{})
	resident := float64(tenant.SizeBytes()) / (1 << 20)
	tenant.Close()

	// The batch user's request is the whole reproduction: build plus
	// every experiment. (Per-experiment times are a mixture of fourteen
	// fixed costs from 0.3 ms to 600 ms, whose percentiles fall between
	// experiments and jump run to run; they are reported per layer.)
	p99, q := jobs.tail()
	rep.e2e["setup_s"] = builds.median()
	rep.e2e["experiments_s"] = sweeps.median()
	rep.e2e["heap_live_mb"] = heap
	rep.e2e["latency_p50_ms"] = jobs.median()
	rep.e2e["latency_p99_ms"] = p99
	rep.e2e["throughput_rps"] = float64(runs) / sweepTotal.Seconds()
	rep.e2e["cold_touch_p50_ms"] = cold.median()
	rep.e2e["resident_mb"] = resident

	if env.tr != nil {
		acc.report(rep, env.tr)
		for _, n := range names {
			rep.layer["experiments."+n+"_ms"] = perExp[n].median()
		}
		rep.layer["classify.breakdown_ms"] = timeBreakdown(env.tr, s)
		rep.layer["runtime.gc_cpu_fraction"] = m.GCCPUFraction
		rep.layer["bench.latency_samples"] = float64(len(jobs))
		rep.layer["bench.latency_tail_quantile"] = q
		rep.layer["service.resident_bytes"] = float64(tenant.SizeBytes())
	}
	return rep, nil
}

// goldenGate builds the test profile at the golden seed and requires
// every experiment's rendering to equal its committed golden byte for
// byte. It runs before any timing; a mismatch makes the run incorrect.
func goldenGate(env *runEnv, rep *report, names []string) error {
	cfg, err := spec.ProfileConfig("test")
	if err != nil {
		return err
	}
	cfg.Seed = goldenSeed
	s, err := scenario.Build(cfg, nil)
	if err != nil {
		return fmt.Errorf("golden gate build: %w", err)
	}
	for _, n := range names {
		want, err := os.ReadFile(filepath.Join(env.root, "internal", "experiments", "testdata", n+"_seed7.golden"))
		if err != nil {
			rep.fail("golden for %s: %v", n, err)
			continue
		}
		var buf bytes.Buffer
		if err := experiments.Run(n, &buf, s, goldenExpSeed); err != nil {
			rep.fail("golden gate: experiment %s: %v", n, err)
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			rep.fail("golden gate: experiment %s output differs from %s_seed7.golden", n, n)
		}
	}
	return nil
}

// timeBreakdown times classify.Context.Breakdown over every decision
// for each refinement (benchmark spans), returning the total in ms.
func timeBreakdown(tr *tracer, s *scenario.Scenario) float64 {
	decisions := s.Decisions()
	var total time.Duration
	for _, ref := range classify.Refinements {
		sp := tr.begin("classify.Breakdown/"+ref.String(), 0, 0)
		t0 := time.Now()
		s.Context.Breakdown(decisions, ref)
		total += time.Since(t0)
		tr.end(sp)
	}
	return ms(total)
}

// buildAccount accumulates per-build layer figures across the builds a
// workload performs: stage-timer and counter deltas from obs, and
// allocation deltas from runtime.MemStats.
type buildAccount struct {
	builds            int
	spans             []int64
	stageMS           map[string]float64
	events, changes   int64
	internH, internM  int64
	allocB, mallocs   uint64
	ribUtil           float64
	sealMS, buildStMS float64 // service/scenario-build vs scenario/build totals
}

// build runs scenario.Build under a benchmark span, recording deltas
// around it when traced.
func (a *buildAccount) build(tr *tracer, cfg scenario.Config, name string) (*scenario.Scenario, error) {
	if tr == nil {
		return scenario.Build(cfg, nil)
	}
	var m0, m1 runtime.MemStats
	before := obs.Snap()
	runtime.ReadMemStats(&m0)
	sp := tr.begin(name, 0, 0)
	tr.setAmbient(sp)
	s, err := scenario.Build(cfg, nil)
	tr.setAmbient(0)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	after := obs.Snap()
	if err != nil {
		return nil, err
	}
	a.observe(before, after)
	a.spans = append(a.spans, sp)
	a.allocB += m1.TotalAlloc - m0.TotalAlloc
	a.mallocs += m1.Mallocs - m0.Mallocs
	return s, nil
}

// observe folds the obs deltas of one or more builds between two
// snapshots into the account.
func (a *buildAccount) observe(before, after obs.Snapshot) {
	if a.stageMS == nil {
		a.stageMS = map[string]float64{}
	}
	n := counterDelta(before, after, "scenario.builds")
	a.builds += int(n)
	for _, st := range buildStages {
		a.stageMS[st.metric] += ms(stageDelta(before, after, st.stage))
	}
	a.buildStMS += ms(stageDelta(before, after, "scenario/build"))
	a.sealMS += ms(stageDelta(before, after, "service/scenario-build"))
	a.events += counterDelta(before, after, "bgp.converge.events")
	a.changes += counterDelta(before, after, "bgp.converge.changes")
	a.internH += counterDelta(before, after, "bgp.intern.hits")
	a.internM += counterDelta(before, after, "bgp.intern.misses")
	if n > 0 {
		a.ribUtil = after.Gauges["bgp/compute-rib.utilization"]
	}
}

// report writes the per-build layer metrics.
func (a *buildAccount) report(rep *report, tr *tracer) {
	if a.builds == 0 {
		return
	}
	nb := float64(a.builds)
	// The benchmark's own spans around scenario.Build, with their self
	// time derived from the stage spans they contain.
	var buildMS, selfMS sample
	spans := tr.closed()
	self := selfTimes(spans)
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, id := range a.spans {
		if s, ok := byID[id]; ok {
			buildMS = append(buildMS, ms(time.Duration(s.End-s.Start)))
		}
	}
	// Self time of the program's own scenario/build stage: the part of
	// the build no phase stage covers. Where the build runs inside the
	// service (a store build), that stage span is also the only span
	// around it.
	var stageMS sample
	for _, s := range spans {
		if s.Name == "stage/scenario/build" {
			selfMS = append(selfMS, ms(self[s.ID]))
			stageMS = append(stageMS, ms(time.Duration(s.End-s.Start)))
		}
	}
	if len(buildMS) == 0 {
		buildMS = stageMS
	}
	rep.layer["scenario.build_ms"] = buildMS.median()
	rep.layer["scenario.self_ms"] = selfMS.median()
	covered := 0.0
	for _, st := range buildStages {
		rep.layer[st.metric] = a.stageMS[st.metric] / nb
		covered += a.stageMS[st.metric]
	}
	if a.buildStMS > 0 {
		rep.layer["scenario.stage_coverage_ratio"] = covered / a.buildStMS
	}
	rep.layer["bgp.converge_events"] = float64(a.events) / nb
	rep.layer["bgp.converge_changes"] = float64(a.changes) / nb
	if a.internH+a.internM > 0 {
		rep.layer["bgp.intern_hit_ratio"] = float64(a.internH) / float64(a.internH+a.internM)
	}
	rep.layer["bgp.rib_utilization"] = a.ribUtil
	if a.allocB > 0 {
		rep.layer["runtime.alloc_mb_per_build"] = float64(a.allocB) / (1 << 20) / nb
		rep.layer["runtime.mallocs_per_build"] = float64(a.mallocs) / nb
	}
	if a.sealMS > 0 {
		rep.layer["service.tenant_seal_ms"] = (a.sealMS - a.buildStMS) / nb
	}
}

// stageDelta is the wall time a stage timer accumulated between two
// snapshots.
func stageDelta(before, after obs.Snapshot, name string) time.Duration {
	return time.Duration(stageTotal(after, name) - stageTotal(before, name))
}

// stageCountDelta is how many times a stage ran between two snapshots.
func stageCountDelta(before, after obs.Snapshot, name string) int64 {
	return stageCount(after, name) - stageCount(before, name)
}

func stageTotal(s obs.Snapshot, name string) int64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.TotalNS
		}
	}
	return 0
}

func stageCount(s obs.Snapshot, name string) int64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

func counterDelta(before, after obs.Snapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}
