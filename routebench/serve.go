package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"routelab/internal/obs"
	"routelab/internal/scenario"
	"routelab/internal/service"
	"routelab/internal/spec"
	"routelab/internal/topology"
	"routelab/internal/whatif"
)

// requestTimeout bounds one client request; a request that times out
// counts as failed (and so as missing any latency limit).
const requestTimeout = 10 * time.Second

// setupReps is how many times a serving workload repeats its set-up
// (fresh store, register, first build); setup_s is their median.
const setupReps = 5

// fleetHarness is the real serving stack — service.NewStore behind
// service.NewFleet — on a loopback listener inside this process.
type fleetHarness struct {
	store *service.Store
	srv   *http.Server
	base  string
	done  chan struct{}
}

func startFleet(cfg service.StoreConfig) (*fleetHarness, error) {
	store := service.NewStore(cfg)
	fleet := service.NewFleet(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &fleetHarness{
		store: store,
		srv:   &http.Server{Handler: fleet.Handler(), ReadHeaderTimeout: requestTimeout},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return h, nil
}

// close drains the HTTP server, waits for Serve to return, and stops
// every tenant's background fork-pool refills.
func (h *fleetHarness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // a drain past the timeout just closes connections
	<-h.done
	h.store.Close()
}

// specDoc is a routelab-spec/v1 document for one tenant.
func specDoc(name, profile string, seed int64) []byte {
	b, _ := json.Marshal(map[string]any{ // plain map of strings and an int64: cannot fail
		"spec": spec.Version, "name": name, "profile": profile, "seed": seed,
		"description": "routebench tenant",
	})
	return b
}

// specConfig compiles a spec document exactly as the fleet's admission
// path does, so a control world is built from the same spec.
func specConfig(doc []byte) (scenario.Config, error) {
	sp, err := spec.Parse("routebench", doc, "json", nil)
	if err != nil {
		return scenario.Config{}, err
	}
	exp, err := sp.Expansion()
	if err != nil {
		return scenario.Config{}, err
	}
	return exp.Config, nil
}

// getOK performs one request outside any schedule and requires a 200
// with a valid envelope.
func getOK(c *client, cl *call) (reply, error) {
	r, err := c.do(context.Background(), cl)
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK && r.status != http.StatusCreated {
		return r, fmt.Errorf("%s %s: status %d: %s", cl.method, cl.path, r.status, bytes.TrimSpace(r.body))
	}
	if _, err := service.ReadEnvelope(bytes.NewReader(r.body)); err != nil {
		return r, fmt.Errorf("%s %s: invalid envelope: %w", cl.method, cl.path, err)
	}
	return r, nil
}

// tenantSetup is one serving set-up: a fresh fleet, the tenant spec
// registered over the API, and the first 200 from it (which builds it).
type tenantSetup struct {
	h      *fleetHarness
	c      *client
	setup  time.Duration // registration + first 200
	touch  time.Duration // the first 200 alone (a cold touch)
	health []byte        // the first healthz body
}

// setupTenant starts a fleet, registers the others' specs and then id
// from doc over the API, and touches id. acc (traced runs) records the
// build's layer deltas.
func setupTenant(env *runEnv, cfg service.StoreConfig, id string, doc []byte, others [][]byte, acc *buildAccount) (*tenantSetup, error) {
	h, err := startFleet(cfg)
	if err != nil {
		return nil, err
	}
	ts := &tenantSetup{h: h, c: newClient(h.base, runtime.NumCPU(), requestTimeout)}
	t0 := time.Now()
	for _, d := range append(others, doc) {
		if _, err := getOK(ts.c, &call{method: "POST", path: "/v1/scenarios", body: d}); err != nil {
			ts.close()
			return nil, err
		}
	}
	tc := time.Now()
	before, m0 := obs.Snap(), memStats(env.tr)
	sp := env.tr.begin("service.Store.Get/"+id, 0, 0)
	env.tr.setAmbient(sp)
	r, err := getOK(ts.c, &call{method: "GET", path: "/v1/scenarios/" + id + "/healthz"})
	env.tr.setAmbient(0)
	env.tr.end(sp)
	if err != nil {
		ts.close()
		return nil, err
	}
	ts.touch = time.Since(tc)
	ts.setup = time.Since(t0)
	ts.health = r.body
	if env.tr != nil {
		acc.observe(before, obs.Snap())
		m1 := memStats(env.tr)
		acc.allocB += m1.TotalAlloc - m0.TotalAlloc
		acc.mallocs += m1.Mallocs - m0.Mallocs
	}
	return ts, nil
}

// minSweeps is the fewest cold experiment sweeps a serving workload
// times; experiments_s is their median.
const minSweeps = 5

// sweepExperiments serves every experiment once through the fleet, again
// and again for the given seconds (at least minSweeps times), each sweep
// at its own experiment seed so that every request is a cold cache miss,
// and returns the wall time of each sweep.
func sweepExperiments(c *client, id string, seed int64, seconds float64) (sample, error) {
	var walls sample
	stop := deadline(seconds)
	for k := 0; k < minSweeps || time.Now().Before(stop); k++ {
		t0 := time.Now()
		for _, n := range experimentNames() {
			ex := call{method: "GET", path: fmt.Sprintf("/v1/scenarios/%s/experiments/%s?seed=%d", id, n, seed*1000+int64(k))}
			r, err := getOK(c, &ex)
			if err != nil {
				return nil, err
			}
			if r.cache != "miss" {
				return nil, fmt.Errorf("%s: first request served as %q, want a cache miss", ex.path, r.cache)
			}
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return walls, nil
}

func (ts *tenantSetup) close() {
	ts.c.close()
	ts.h.close()
}

// memStats reads runtime.MemStats in traced runs only (it stops the
// world briefly).
func memStats(tr *tracer) runtime.MemStats {
	var m runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m)
	}
	return m
}

// throughputWindow is the window width throughput is measured over.
const throughputWindow = time.Second

// runServeMiss runs serve-miss against one test-profile tenant:
// repeated set-up, experiment sweeps for a fifth of the measuring
// budget, then a closed loop of never-repeating requests on nproc
// connections for the rest. Keeping every core busy is deliberate: with
// one request in flight, most of a request's latency on a small VM is
// idle vCPUs waking up, which follows the host's load rather than the
// program.
func runServeMiss(env *runEnv) (*report, error) {
	const name = "serve-miss"
	rep := newReport("latency_p50_ms")
	const id = "bench"
	doc := specDoc(id, "test", worldSeed)
	var (
		setups, touches sample
		acc             buildAccount
		ts              *tenantSetup
		health          []byte
	)
	for i := 0; i < setupReps; i++ {
		if ts != nil {
			ts.close()
		}
		runtime.GC()
		var err error
		ts, err = setupTenant(env, service.StoreConfig{}, id, doc, nil, &acc)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rep.attempted += 2
		setups = append(setups, ts.setup.Seconds())
		touches = append(touches, ms(ts.touch))
		if health == nil {
			health = ts.health
		} else if !bytes.Equal(ts.health, health) {
			rep.fail("set-up %d: rebuilt tenant's healthz differs from the first build's", i)
		}
		logf("%s: set-up %d %.3fs (cold touch %.1fms)", name, i, ts.setup.Seconds(), ms(ts.touch))
	}
	defer ts.close()
	exps, err := sweepExperiments(ts.c, id, env.seed, env.seconds/5)
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(len(exps) * len(experimentNames()))
	logf("%s: experiment sweeps %v s", name, exps)

	// The unloaded control: the same spec built directly and served by
	// a single-scenario Server, answering replayed requests in-process.
	cfg, err := specConfig(doc)
	if err != nil {
		return nil, err
	}
	world, err := scenario.Build(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("control build: %w", err)
	}
	control := service.New(world, service.Config{})
	defer control.Close()
	plan := newMissPlan(env.seed, id, world, control.Handler(), rep)
	phase := func(seconds float64) loopResult {
		runtime.GC()
		r := closedLoop(context.Background(), ts.c, plan.next, runtime.NumCPU(), deadline(seconds), plan.verify, env.tr)
		rep.attempted += int64(r.sent)
		rep.failed += int64(r.failed)
		return r
	}

	// Warm-up: the first requests after the set-up pay for cold caches
	// and a heap still growing to its working size.
	phase(1)
	before := obs.Snap()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ld := phase(env.seconds * 4 / 5)
	after := obs.Snap()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	rates := windowRates(ld.done, ld.wall, throughputWindow)
	logf("%s: %d requests p50 %.3fms (whatif %.3fms, classify %.3fms), %.1f/s (median of %d windows), failures %d",
		name, len(ld.lat), ld.lat.median(), ld.svc["whatif"].median(), ld.svc["classify"].median(), rates.median(), len(rates), ld.failed)
	logf("%s: window rates %.0f", name, rates)
	plan.finish(rep)

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p99, q := ld.lat.windowedTail(tailWindows)
	rep.e2e["setup_s"] = setups.median()
	rep.e2e["experiments_s"] = exps.median()
	rep.e2e["heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
	// The workload's request is the what-if batch. Classify answers
	// (a quarter of the requests, ~10x cheaper) are reported per layer:
	// the median of the two together would sit in the sparse gap
	// between their latency modes and swing with small speed changes.
	rep.e2e["latency_p50_ms"] = ld.svc["whatif"].median()
	rep.e2e["latency_p99_ms"] = p99
	rep.e2e["throughput_rps"] = rates.median()
	rep.e2e["cold_touch_p50_ms"] = touches.median()
	rep.e2e["resident_mb"] = float64(ts.h.store.ResidentBytes()) / (1 << 20)

	if env.tr != nil {
		acc.report(rep, env.tr)
		serviceLayers(rep, before, after, ld.svc, ld.sent)
		rep.layer["runtime.alloc_mb_per_1k_requests"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(ld.sent) * 1000
		rep.layer["runtime.mallocs_per_1k_requests"] = float64(m1.Mallocs-m0.Mallocs) / float64(ld.sent) * 1000
		rep.layer["runtime.gc_cpu_fraction"] = m.GCCPUFraction
		rep.layer["bench.latency_samples"] = float64(len(ld.lat))
		rep.layer["bench.latency_tail_quantile"] = q
		rep.layer["service.resident_bytes"] = float64(ts.h.store.ResidentBytes())
		if ld.cached > 0 {
			rep.layer["service.cache_hit_ratio"] = float64(ld.hits) / float64(ld.cached)
		}
		if rep.attempted > 0 {
			rep.layer["bench.error_ratio"] = float64(rep.failed) / float64(rep.attempted)
		}
		plan.whatifLayers(rep, env.tr)
	}
	return rep, nil
}

// capFailed keeps a latency that includes failures finite: a failed
// request waited at least the request timeout.
func capFailed(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(requestTimeout)
	}
	return v
}

// serviceLayers fills the request-path layer metrics from obs deltas
// (handler stage timers, shed/error counters, fork counters) and the
// client's own per-endpoint latencies over the same requests.
func serviceLayers(rep *report, before, after obs.Snapshot, svc map[string]sample, sent int) {
	// Transport is what the client waits beyond the handler: per
	// endpoint, client p50 minus handler mean, weighted by requests.
	var gap, weight float64
	for _, e := range serviceEndpoints {
		rep.layer["service.request_p50_ms."+e] = svc[e].median()
		n := stageCountDelta(before, after, "service/"+e)
		if n == 0 {
			continue
		}
		h := ms(stageDelta(before, after, "service/"+e)) / float64(n)
		rep.layer["service.handler_ms."+e] = h
		if c := len(svc[e]); c > 0 {
			gap += float64(c) * (svc[e].median() - h)
			weight += float64(c)
		}
	}
	if weight > 0 {
		rep.layer["service.transport_ms"] = gap / weight
	}
	rep.layer["service.shed_total"] = float64(counterDelta(before, after, "service.shed.requests") + counterDelta(before, after, "service.shed.builds"))
	var errs int64
	for name, v := range after.Counters {
		if strings.HasPrefix(name, "service.errors.") {
			errs += v - before.Counters[name]
		}
	}
	rep.layer["service.errors_total"] = float64(errs)
	if sent > 0 {
		forks := counterDelta(before, after, "bgp.fork.calls")
		rep.layer["bgp.fork_calls_per_request"] = float64(forks) / float64(sent)
		if forks > 0 {
			rep.layer["bgp.fork_row_clones_per_fork"] = float64(counterDelta(before, after, "bgp.fork.row_clones")) / float64(forks)
		}
	}
}

// checkedBodies remembers the first body of every key (a digest) and
// requires every later response for the key to match it byte for byte.
type checkedBodies struct {
	mu   sync.Mutex
	seen map[string][32]byte
}

func (cb *checkedBodies) same(key string, body []byte) bool {
	sum := sha256.Sum256(body)
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.seen == nil {
		cb.seen = map[string][32]byte{}
	}
	if prev, ok := cb.seen[key]; ok {
		return prev == sum
	}
	cb.seen[key] = sum
	return true
}

// --- serve-miss -----------------------------------------------------------

// missPlan interleaves what-if batches whose canonical keys never
// repeat with classify requests walking every trace in seeded order
// (a working set ~8x the cache), so every request computes. Three of
// four requests are what-if batches: with a 1:1 mix the median would
// sit on the edge between the two endpoints' latency modes.
type missPlan struct {
	rep     *report
	rng     *rand.Rand
	id      string
	w       *scenario.Scenario
	control http.Handler
	links   []*topology.Link
	used    map[string]bool
	traces  []int
	cursor  int
	seq     int
	batches [][]whatif.Delta // every batch issued, for the traced whatif layer
	issued  map[int]call     // sampled requests by sequence number
	bodies  checkedBodies

	mu      sync.Mutex
	sampled map[int][]byte // request seq -> body, replayed against the control
}

// sampleEvery is the control-replay sampling stride over the request
// sequence.
const sampleEvery = 16

func newMissPlan(seed int64, id string, w *scenario.Scenario, control http.Handler, rep *report) *missPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x6d697373))
	p := &missPlan{rep: rep, rng: rng, id: id, w: w, control: control, used: map[string]bool{}, issued: map[int]call{}, sampled: map[int][]byte{}}
	w.Topo.Links(func(l *topology.Link) { p.links = append(p.links, l) })
	sort.Slice(p.links, func(i, j int) bool {
		if p.links[i].Lo != p.links[j].Lo {
			return p.links[i].Lo < p.links[j].Lo
		}
		return p.links[i].Hi < p.links[j].Hi
	})
	for _, i := range rng.Perm(len(w.Measurements)) {
		p.traces = append(p.traces, w.Measurements[i].TraceID)
	}
	return p
}

// delta draws one what-if delta from the sealed topology.
func (p *missPlan) delta() whatif.Delta {
	origin := p.w.Testbed.Origin
	ases := p.w.Topo.ASNs()
	switch p.rng.Intn(4) {
	case 0:
		return whatif.Delta{Kind: whatif.Prepend, Prepend: 1 + p.rng.Intn(10)}
	case 1:
		var poisoned []string
		for len(poisoned) < 1+p.rng.Intn(2) {
			if a := ases[p.rng.Intn(len(ases))]; a != origin {
				poisoned = append(poisoned, a.String())
			}
		}
		return whatif.Delta{Kind: whatif.Poison, Poisoned: poisoned}
	case 2:
		l := p.links[p.rng.Intn(len(p.links))]
		return whatif.Delta{Kind: whatif.LinkFailure, A: l.Lo.String(), B: l.Hi.String()}
	default:
		l := p.links[p.rng.Intn(len(p.links))]
		at, from := l.Lo, l.Hi
		if p.rng.Intn(2) == 1 {
			at, from = from, at
		}
		return whatif.Delta{Kind: whatif.LocalPref, At: at.String(), From: from.String(), Pref: p.rng.Intn(1000)}
	}
}

// batch draws a 2-delta batch whose canonical key was never issued.
func (p *missPlan) batch() []whatif.Delta {
	for {
		ds := []whatif.Delta{p.delta(), p.delta()}
		cds, err := whatif.CompileAll(ds, p.w.Topo, p.w.Testbed.Origin)
		if err != nil {
			continue // a draw the topology rejects (e.g. a degenerate pair) is redrawn
		}
		key := whatif.CanonicalKey(cds)
		if p.used[key] {
			continue
		}
		p.used[key] = true
		return ds
	}
}

// next returns the plan's next request. It is not safe for concurrent
// use (closedLoop calls it under its lock).
func (p *missPlan) next() call {
	root := "/v1/scenarios/" + p.id
	var cl call
	p.seq++
	if p.seq%4 != 0 {
		ds := p.batch()
		p.batches = append(p.batches, ds)
		body, _ := json.Marshal(service.WhatIfRequest{Schema: service.WhatIfSchema, Deltas: ds}) // plain structs: cannot fail
		cl = call{method: "POST", path: root + "/whatif", body: body, endpoint: "whatif", seq: p.seq}
	} else {
		t := p.traces[p.cursor%len(p.traces)]
		p.cursor++
		cl = call{method: "GET", path: fmt.Sprintf("%s/classify?trace=%d", root, t), endpoint: "classify", key: fmt.Sprintf("classify|%d", t), seq: p.seq}
	}
	if p.seq%sampleEvery == 0 {
		p.issued[p.seq] = cl
	}
	return cl
}

// verify requires a 200 miss carrying a valid envelope; classify
// repeats must be byte-identical, and every sampleK-th request is kept
// for the control replay.
func (p *missPlan) verify(cl *call, r *reply, err error) bool {
	if err != nil || r.status != http.StatusOK {
		return false
	}
	bad := func(format string, args ...any) bool {
		p.mu.Lock()
		p.rep.fail(format, args...)
		p.mu.Unlock()
		return false
	}
	if _, err := service.ReadEnvelope(bytes.NewReader(r.body)); err != nil {
		return bad("%s: invalid envelope: %v", cl.path, err)
	}
	if cl.key != "" && !p.bodies.same(cl.key, r.body) {
		return bad("%s: body differs from an earlier response", cl.path)
	}
	if cl.seq%sampleEvery == 0 {
		p.mu.Lock()
		p.sampled[cl.seq] = r.body
		p.mu.Unlock()
	}
	return true
}

// finish replays the sampled requests against the unloaded control and
// requires byte equality.
func (p *missPlan) finish(rep *report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, seq := range sortedInts(p.sampled) {
		cl := p.issued[seq]
		var body io.Reader
		if cl.body != nil {
			body = bytes.NewReader(cl.body)
		}
		path := strings.Replace(cl.path, "/v1/scenarios/"+p.id, "/v1", 1)
		rec := httptest.NewRecorder()
		p.control.ServeHTTP(rec, httptest.NewRequest(cl.method, path, body))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), p.sampled[seq]) {
			rep.fail("%s %s: served body differs from the unloaded control (status %d)", cl.method, cl.path, rec.Code)
		}
	}
	logf("serve-miss: %d sampled responses replayed against the control", len(p.sampled))
}

// whatifLayers times the what-if layer directly on the workload's own
// batches (the first whatifSample of them): CompileAll per batch and
// Eval per delta against the control world's frozen anycast base.
func (p *missPlan) whatifLayers(rep *report, tr *tracer) {
	const whatifSample = 200
	base := p.w.Testbed.AnycastBase(p.w.Testbed.Prefixes[0])
	var compile, eval sample
	for _, ds := range p.batches[:min(whatifSample, len(p.batches))] {
		sp := tr.begin("whatif.CompileAll", 0, 0)
		t0 := time.Now()
		cds, err := whatif.CompileAll(ds, p.w.Topo, p.w.Testbed.Origin)
		compile = append(compile, float64(time.Since(t0))/float64(time.Microsecond))
		tr.end(sp)
		if err != nil {
			rep.fail("whatif.CompileAll: %v", err)
			continue
		}
		for _, cd := range cds {
			sp := tr.begin("whatif.Eval", 0, 0)
			t1 := time.Now()
			_, err := whatif.Eval(base, cd)
			eval = append(eval, ms(time.Since(t1)))
			tr.end(sp)
			if err != nil {
				rep.fail("whatif.Eval %s: %v", cd.Canonical(), err)
			}
		}
	}
	rep.layer["whatif.compile_us"] = compile.median()
	rep.layer["whatif.eval_p50_ms"] = eval.median()
	rep.layer["whatif.eval_p99_ms"], _ = eval.tail()
}

func sortedInts[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
