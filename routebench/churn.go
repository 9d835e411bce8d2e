package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
)

// loadShape fixes an open-loop stream's latency limit and rate.
type loadShape struct {
	limitMS float64 // tail-percentile latency limit
	refRate float64 // offered rate (req/s)
}

// lagMS is the median generator lag above which a stream is invalid: a
// tenth of the latency limit, so that the generator's typical lateness
// stays small beside what the limit judges.
func (s loadShape) lagMS() float64 { return s.limitMS / 10 }

// abortBacklog is the backlog at which an open-loop stream is
// abandoned.
const abortBacklog = 200

// churnShape is fleet-churn's hot stream. Its limit admits the stall a
// rebuild imposes on hot reads (the build's workers hold every core for
// hundreds of ms).
var churnShape = loadShape{limitMS: 500, refRate: 200}

// churnOverrun is how long stream b runs past stream a's deadline (s):
// several rebuilds' worth.
const churnOverrun = 3

// runFleetChurn runs two phases against a fleet of three tiny tenants
// whose byte budget holds the hot tenant plus one churn tenant, after
// experiment sweeps on the hot tenant for a fifth of the measuring
// budget. Phase 1 takes half of the budget, phase 2 the rest. In both, stream a is one closed-loop
// client touching the two churn tenants in turn, so every touch evicts
// one and rebuilds the other. Phase 1 runs stream a alone, touching the
// hot tenant before each churn touch so that it is never the least
// recently served; its touches give the end-to-end figures. Phase 2
// adds stream b, open-loop hot reads on the third tenant, which must
// never be evicted; how far rebuilds stall those reads is reported per
// layer (it follows the host's scheduling more than the program).
func runFleetChurn(env *runEnv) (*report, error) {
	rep := newReport("cold_touch_p50_ms")
	const hot = "hot"
	churn := []string{"churn-a", "churn-b"}
	docs := map[string][]byte{
		hot:      specDoc(hot, "tiny", worldSeed),
		churn[0]: specDoc(churn[0], "tiny", worldSeed+1),
		churn[1]: specDoc(churn[1], "tiny", worldSeed+2),
	}
	ids := []string{hot, churn[0], churn[1]}

	// Calibrate: an unbounded store builds each tenant once, reporting
	// its SizeBytes and its first-build healthz body.
	sizes, firstHealth, err := calibrateChurn(ids, docs)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(2 * len(ids))
	budget := sizes[hot] + max(sizes[churn[0]], sizes[churn[1]])
	storeCfg := service.StoreConfig{MaxScenarioBytes: budget}

	var (
		setups sample
		acc    buildAccount
		ts     *tenantSetup
	)
	for i := 0; i < setupReps; i++ {
		if ts != nil {
			ts.close()
		}
		runtime.GC()
		// Set-up ends when all three tenants are registered and the hot
		// one serves.
		ts, err = setupTenant(env, storeCfg, hot, docs[hot], [][]byte{docs[churn[0]], docs[churn[1]]}, &acc)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rep.attempted += int64(len(ids) + 1)
		setups = append(setups, ts.setup.Seconds())
		if !bytes.Equal(ts.health, firstHealth[hot]) {
			rep.fail("set-up %d: hot healthz differs from its first build", i)
		}
		logf("fleet-churn: set-up %d %.3fs", i, ts.setup.Seconds())
	}
	defer ts.close()
	exps, err := sweepExperiments(ts.c, hot, env.seed, env.seconds/5)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(exps) * len(experimentNames()))
	logf("fleet-churn: experiment sweeps %v s", exps)
	store := ts.h.store
	hotSrv, err := store.Get(context.Background(), hot)
	if err != nil {
		return nil, err
	}

	// Hot keys come from the hot world built directly from its spec.
	cfg, err := specConfig(docs[hot])
	if err != nil {
		return nil, err
	}
	world, err := scenario.Build(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("hot key world: %w", err)
	}
	plan := newHotPlan(env.seed, hot, world, rep)
	if err := plan.warm(ts.c); err != nil {
		return nil, err
	}

	// Prime: build both churn tenants once, so every measured touch is
	// exactly one rebuild and one eviction.
	for _, id := range churn {
		if _, err := touchChurn(ts.c, hot, firstHealth[hot]); err != nil {
			return nil, fmt.Errorf("prime %s: %w", hot, err)
		}
		if _, err := touchChurn(ts.c, id, firstHealth[id]); err != nil {
			return nil, fmt.Errorf("prime %s: %w", id, err)
		}
		rep.attempted += 2
	}

	var highB int64
	rounds := 0
	// churnUntil runs stream a until stop and returns each touch's
	// latency. With touchHot it first touches the hot tenant, untimed,
	// before every churn touch.
	churnUntil := func(stop time.Time, touchHot bool) sample {
		var touches sample
		for time.Now().Before(stop) {
			if touchHot {
				rep.attempted++
				if _, err := touchChurn(ts.c, hot, firstHealth[hot]); err != nil {
					rep.failed++
					rep.fail("hot touch: %v", err)
				}
			}
			id := churn[rounds%2]
			sp := env.tr.begin("churn.touch/"+id, 0, 0)
			env.tr.setAmbient(sp)
			d, err := touchChurn(ts.c, id, firstHealth[id])
			env.tr.setAmbient(0)
			env.tr.end(sp)
			rep.attempted++
			rounds++
			if err != nil {
				rep.failed++
				rep.fail("churn touch %s: %v", id, err)
				continue
			}
			touches = append(touches, ms(d))
			// The ledger must equal the sum of the resident tenants' sizes
			// after every admit/evict.
			var sum int64
			for _, in := range store.Infos() {
				if in.Built {
					sum += in.SizeBytes
				}
			}
			rb := store.ResidentBytes()
			if rb != sum {
				rep.fail("after touch %d: ResidentBytes %d != sum of built SizeBytes %d", rounds, rb, sum)
			}
			highB = max(highB, rb)
			if in, err := store.Info(hot); err != nil || !in.Built {
				rep.fail("after touch %d: hot tenant not resident", rounds)
			}
		}
		return touches
	}

	// Phase 1: stream a alone.
	before := obs.Snap()
	runtime.GC()
	aStart := time.Now()
	touches := churnUntil(deadline(env.seconds/2), true)
	aWall := time.Since(aStart)

	// Phase 2: stream a beside stream b. Stream b outlasts stream a by
	// churnOverrun, so the hot tenant keeps being read through the last
	// touch (which may start just before the deadline) and is never the
	// least recently served at an eviction.
	runtime.GC()
	mid := obs.Snap()
	var (
		wg      sync.WaitGroup
		streamB stepResult
	)
	measured := env.seconds * 3 / 10
	workers := max(1, runtime.NumCPU()-1) // stream a holds the other connection
	calls := plan.calls(int(math.Round(churnShape.refRate * (measured + churnOverrun))))
	wg.Add(1)
	go func() {
		defer wg.Done()
		streamB = openLoop(context.Background(), ts.c, calls, churnShape.refRate, workers, abortBacklog, plan.verify, env.tr)
	}()
	beside := churnUntil(deadline(measured), false)
	wg.Wait()
	after := obs.Snap()

	n := int64(len(touches) + len(beside))
	builds := counterDelta(before, after, "service.scenario.builds")
	evictions := counterDelta(before, after, "service.scenario.evictions")
	if builds != n || evictions != n {
		rep.fail("%d churn touches caused %d builds and %d evictions; want one each per touch", n, builds, evictions)
	}
	if srv, err := store.Get(context.Background(), hot); err != nil || srv != hotSrv {
		rep.fail("hot tenant was rebuilt during the run")
	}
	rep.attempted += int64(len(streamB.lat))
	rep.failed += int64(streamB.failed)
	// Stream b's latency is judged on the reads due while stream a was
	// churning; the overrun only keeps the hot tenant fresh.
	churning := streamB.lat[:min(len(streamB.lat), int(math.Round(churnShape.refRate*measured)))]
	bc := judge(streamB, churnShape.limitMS, churnShape.lagMS(), workers)
	lagP99, _ := streamB.lag.windowedTail(tailWindows)
	if bc.lagging {
		rep.fail("generator fell behind on the hot stream (median lag %.2f ms > %.2f ms): run invalid", streamB.lag.median(), churnShape.lagMS())
	}
	logf("fleet-churn: alone %d touches p50 %.1fms; beside hot reads %d touches p50 %.1fms, hot stream p50 %.3fms tail(q%.3f) %.3fms failures %d, within its limit: %v",
		len(touches), touches.median(), len(beside), beside.median(), churning.median(), bc.q, bc.tail, bc.failures, bc.meets)

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p99, q := churning.windowedTail(tailWindows)
	rep.e2e["setup_s"] = setups.median()
	rep.e2e["experiments_s"] = exps.median()
	rep.e2e["heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
	// The churn client's request is the touch: latency and cold touch
	// are the same figure here.
	rep.e2e["latency_p50_ms"] = touches.median()
	rep.e2e["latency_p99_ms"] = capFailed(p99)
	rep.e2e["throughput_rps"] = float64(len(touches)) / aWall.Seconds()
	rep.e2e["cold_touch_p50_ms"] = touches.median()
	rep.e2e["resident_mb"] = float64(highB) / (1 << 20)

	if env.tr != nil {
		acc.observe(before, after)
		acc.report(rep, env.tr)
		serviceLayers(rep, mid, after, streamB.svc, streamB.sent)
		cycles := float64(n) / 2
		if cycles > 0 {
			rep.layer["service.store_builds_per_cycle"] = float64(builds) / cycles
			rep.layer["service.store_evictions_per_cycle"] = float64(evictions) / cycles
		}
		rep.layer["service.resident_bytes"] = float64(highB)
		rep.layer["service.churn_read_p50_ms"] = capFailed(churning.median())
		rep.layer["service.churn_touch_p50_ms"] = beside.median()
		rep.layer["runtime.gc_cpu_fraction"] = m.GCCPUFraction
		rep.layer["bench.generator_lag_p99_ms"] = lagP99
		rep.layer["bench.latency_samples"] = float64(len(churning))
		rep.layer["bench.latency_tail_quantile"] = q
		if streamB.cached > 0 {
			rep.layer["service.cache_hit_ratio"] = float64(streamB.hits) / float64(streamB.cached)
		}
		if rep.attempted > 0 {
			rep.layer["bench.error_ratio"] = float64(rep.failed) / float64(rep.attempted)
		}
	}
	return rep, nil
}

// calibrateChurn builds every tenant once in an unbounded store and
// returns each one's SizeBytes and first healthz body.
func calibrateChurn(ids []string, docs map[string][]byte) (map[string]int64, map[string][]byte, error) {
	h, err := startFleet(service.StoreConfig{MaxScenarios: len(ids)})
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	c := newClient(h.base, 1, requestTimeout)
	defer c.close()
	sizes := map[string]int64{}
	health := map[string][]byte{}
	for _, id := range ids {
		if _, err := getOK(c, &call{method: "POST", path: "/v1/scenarios", body: docs[id]}); err != nil {
			return nil, nil, err
		}
		r, err := getOK(c, &call{method: "GET", path: "/v1/scenarios/" + id + "/healthz"})
		if err != nil {
			return nil, nil, err
		}
		health[id] = r.body
		in, err := h.store.Info(id)
		if err != nil {
			return nil, nil, err
		}
		sizes[id] = in.SizeBytes
	}
	return sizes, health, nil
}

// touchChurn requests a churn tenant's healthz, which (re)builds it when
// evicted, and requires the body of its first build.
func touchChurn(c *client, id string, want []byte) (time.Duration, error) {
	t0 := time.Now()
	r, err := getOK(c, &call{method: "GET", path: "/v1/scenarios/" + id + "/healthz", endpoint: "healthz"})
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if !bytes.Equal(r.body, want) {
		return d, fmt.Errorf("%s: rebuilt healthz differs from its first build", id)
	}
	return d, nil
}

// hotPlan is a small fixed key set (far under the 256-entry fleet
// cache), warmed before the clock: every measured request is a hit.
type hotPlan struct {
	rep   *report
	keys  []call
	rng   *rand.Rand
	warmB map[string][]byte
	mu    sync.Mutex
}

// newHotPlan draws the hot key set from the world: classify for 24
// traces, 16 ASes and one cheap experiment. Healthz is left out: its
// handler timer then measures fleet-churn's touches alone.
func newHotPlan(seed int64, id string, w *scenario.Scenario, rep *report) *hotPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x6b6f74))
	p := &hotPlan{rep: rep, rng: rng, warmB: map[string][]byte{}}
	root := "/v1/scenarios/" + id
	for _, i := range rng.Perm(len(w.Measurements))[:min(24, len(w.Measurements))] {
		t := w.Measurements[i].TraceID
		p.keys = append(p.keys, call{method: "GET", path: fmt.Sprintf("%s/classify?trace=%d", root, t), endpoint: "classify"})
	}
	ases := w.Topo.ASNs()
	for _, i := range rng.Perm(len(ases))[:min(16, len(ases))] {
		p.keys = append(p.keys, call{method: "GET", path: root + "/as/" + ases[i].String(), endpoint: "as"})
	}
	p.keys = append(p.keys, call{method: "GET", path: root + "/experiments/table1", endpoint: "experiments"})
	for i := range p.keys {
		p.keys[i].key = p.keys[i].path
	}
	return p
}

func (p *hotPlan) calls(n int) []call {
	out := make([]call, n)
	for i := range out {
		out[i] = p.keys[p.rng.Intn(len(p.keys))]
	}
	return out
}

// warm requests every key twice: the first answer is validated and
// kept; the second must be a cache hit with identical bytes.
func (p *hotPlan) warm(c *client) error {
	for i := range p.keys {
		k := &p.keys[i]
		r, err := getOK(c, k)
		if err != nil {
			return err
		}
		p.warmB[k.key] = r.body
		r2, err := getOK(c, k)
		if err != nil {
			return err
		}
		if r2.cache != "hit" {
			return fmt.Errorf("%s: repeat served as %q, want a cache hit", k.path, r2.cache)
		}
		if !bytes.Equal(r.body, r2.body) {
			p.rep.fail("%s: cache hit differs from its miss", k.path)
		}
	}
	return nil
}

// verify requires a 200 whose bytes equal the warmed (validated) body.
func (p *hotPlan) verify(cl *call, r *reply, err error) bool {
	if err != nil || r.status != http.StatusOK {
		return false
	}
	if !bytes.Equal(r.body, p.warmB[cl.key]) {
		p.mu.Lock()
		p.rep.fail("%s: body differs from its first response", cl.path)
		p.mu.Unlock()
		return false
	}
	return true
}
