package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// call is one request of a workload, drawn from the workload seed. An
// open loop's schedule is drawn before the clock starts, so its
// generator does no work beyond hand-off while it runs; a closed loop
// draws each call as a connection frees (a few µs beside a request).
type call struct {
	method   string
	path     string // appended to the server's base URL
	body     []byte
	endpoint string // service endpoint family (healthz, classify, ...)
	// key identifies the response for byte-identity checks; repeats of
	// a key must return identical bytes.
	key string
	seq int // position in the workload's request sequence
}

// reply is one completed HTTP exchange.
type reply struct {
	status int
	cache  string // X-Routelab-Cache header
	body   []byte
}

// client drives the service over loopback HTTP with at most conns
// connections, so in-flight requests never exceed conns.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int, timeout time.Duration) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: timeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(ctx context.Context, cl *call) (reply, error) {
	var body io.Reader
	if cl.body != nil {
		body = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequestWithContext(ctx, cl.method, c.base+cl.path, body)
	if err != nil {
		return reply{}, err
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("read %s: %w", cl.path, err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Routelab-Cache"), body: b}, nil
}

// verifier judges one exchange; it returns false when the request
// failed (transport error, non-200, invalid or wrong body). It is
// called from several workers at once and must be safe for that.
type verifier func(cl *call, r *reply, err error) bool

// stepResult is the outcome of one open-loop step at a fixed rate.
type stepResult struct {
	// lat is each request's latency in ms from its due time, or
	// failedLatency for a failed, refused or unsent request.
	lat sample
	// lag is how late (ms) the generator handed each request off.
	lag sample
	// svc is per-endpoint client latency (ms) from send to last byte.
	svc map[string]sample
	// backlog samples the count of due-but-unstarted requests.
	backlog []int
	aborted bool
	sent    int
	failed  int
	hits    int // 200 responses marked as cache hits
	cached  int // 200 responses from cacheable endpoints (header present)
	oks     int // 200 responses
}

// openLoop sends calls on a fixed schedule (call i due at i/rate after
// the start) through workers connections, regardless of how fast the
// server answers. A dispatcher hands each call to the workers when it
// falls due; a call handed off while every worker is busy waits in the
// backlog. Latency is timed from the due time, so a stall is charged
// to every call queued behind it, and the dispatcher's own lateness at
// hand-off is reported as generator lag. When more than abortBacklog
// handed-off calls wait unstarted, the step is abandoned: the
// remainder count as failed and are never sent.
func openLoop(ctx context.Context, c *client, calls []call, rate float64, workers, abortBacklog int, verify verifier, tr *tracer) stepResult {
	n := len(calls)
	res := stepResult{svc: map[string]sample{}}
	lat := make([]float64, n)
	lag := make([]float64, n)
	svc := make([]float64, n)
	ok := make([]bool, n)
	cache := make([]string, n)
	sent := make([]bool, n)
	interval := float64(time.Second) / rate
	due := func(i int) time.Duration { return time.Duration(float64(i) * interval) }

	// Sized to the number of sends: the dispatcher never blocks, so a
	// slow server builds a visible backlog instead of slowing the clock.
	jobs := make(chan int, n)
	var (
		started atomic.Int64
		abort   atomic.Bool
		wg      sync.WaitGroup
	)
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				started.Add(1)
				if abort.Load() {
					lat[i] = failedLatency
					continue
				}
				sent[i] = true
				s := time.Since(t0)
				sp := tr.begin("http/"+calls[i].endpoint, 0, int64(i)+1)
				r, err := c.do(ctx, &calls[i])
				tr.end(sp)
				e := time.Since(t0)
				if verify(&calls[i], &r, err) {
					ok[i] = true
					cache[i] = r.cache
					lat[i] = ms(e - due(i))
					svc[i] = ms(e - s)
				} else {
					lat[i] = failedLatency
				}
			}
		}()
	}

	next := dispatch(n, due, t0, jobs, func() int { return int(started.Load()) }, abortBacklog, &res.backlog, lag)
	close(jobs)
	wg.Wait()
	res.aborted = next < n
	res.lag = lag[:next]
	for i := next; i < n; i++ {
		lat[i] = failedLatency // abandoned: never handed off
	}
	res.lat = lat
	for i := range calls {
		if sent[i] {
			res.sent++
		}
		if !ok[i] {
			res.failed++
			continue
		}
		res.oks++
		if cache[i] != "" {
			res.cached++
		}
		if cache[i] == "hit" {
			res.hits++
		}
		res.svc[calls[i].endpoint] = append(res.svc[calls[i].endpoint], svc[i])
	}
	return res
}

// loopResult is the outcome of one closed-loop phase.
type loopResult struct {
	// lat is each successful request's latency in ms, send to last
	// byte, in completion order; done is its completion offset from the
	// phase's start.
	lat  sample
	done []time.Duration
	// svc is per-endpoint client latency (ms), as lat.
	svc    map[string]sample
	sent   int
	failed int
	hits   int // 200 responses marked as cache hits
	cached int // 200 responses from cacheable endpoints (header present)
	wall   time.Duration
}

// closedLoop keeps conns requests in flight until stop: each of conns
// workers sends the next call as soon as its previous one completes, so
// nothing ever queues in the client. next is called under a lock and
// returns the calls in sequence. A failed request (transport error,
// refusal, timeout, wrong body) is counted and contributes no latency.
func closedLoop(ctx context.Context, c *client, next func() call, conns int, stop time.Time, verify verifier, tr *tracer) loopResult {
	res := loopResult{svc: map[string]sample{}}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		n  int64
	)
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !time.Now().Before(stop) {
					mu.Unlock()
					return
				}
				cl := next()
				n++
				id := n
				mu.Unlock()
				sp := tr.begin("http/"+cl.endpoint, 0, id)
				s := time.Now()
				r, err := c.do(ctx, &cl)
				e := time.Now()
				tr.end(sp)
				ok := verify(&cl, &r, err)
				mu.Lock()
				res.sent++
				if ok {
					d := ms(e.Sub(s))
					res.lat = append(res.lat, d)
					res.done = append(res.done, e.Sub(t0))
					res.svc[cl.endpoint] = append(res.svc[cl.endpoint], d)
					if r.cache != "" {
						res.cached++
					}
					if r.cache == "hit" {
						res.hits++
					}
				} else {
					res.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// windowRates cuts a phase of length wall into whole windows of width w
// and returns each window's completions per second; a partial last
// window is dropped. Its median is the phase's throughput: a stall
// lowers one window, not the estimate.
func windowRates(done []time.Duration, wall, w time.Duration) sample {
	k := int(wall / w)
	if k < 1 {
		return nil
	}
	counts := make([]int, k)
	for _, d := range done {
		if i := int(d / w); i < k {
			counts[i]++
		}
	}
	out := make(sample, k)
	for i, c := range counts {
		out[i] = float64(c) / w.Seconds()
	}
	return out
}

// dispatch hands call indexes to jobs as they fall due, recording each
// hand-off's lateness in lag (ms) and sampling the backlog (handed off
// but unstarted) every 20 ms. It returns how many calls it handed off:
// fewer than n when the backlog passed abortBacklog.
//
// The dispatcher owns an OS thread and sleeps with nanosleep(2): the Go
// timer behind time.Sleep wakes with millisecond granularity on Linux,
// which alone would add up to a millisecond of lag to every call. On
// waking it needs a P like any goroutine, so while the program keeps
// every P busy its hand-offs run late; that wait is the one a request
// arriving then would spend queued for a P in the server, and timing
// from the due time charges it to the request.
func dispatch(n int, due func(int) time.Duration, t0 time.Time, jobs chan<- int, started func() int, abortBacklog int, backlog *[]int, lag []float64) int {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const sampleEvery = 20 * time.Millisecond
	next := 0
	nextSample := time.Duration(0)
	for next < n {
		now := time.Since(t0)
		for next < n && due(next) <= now {
			lag[next] = ms(now - due(next))
			jobs <- next
			next++
		}
		if now >= nextSample {
			b := next - started()
			*backlog = append(*backlog, b)
			nextSample = now + sampleEvery
			if b > abortBacklog {
				return next
			}
		}
		if next < n {
			if wait := min(due(next), nextSample) - time.Since(t0); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // EINTR just wakes the loop early
			}
		}
	}
	return next
}

// backlogGrowing reports whether backlog samples (taken at a fixed
// interval) show a queue that keeps growing: the least-squares trend
// across the step adds more than minGrowth requests. A queue that
// spikes during a pause and drains, or fluctuates around a level, does
// not count; an offered rate above capacity grows it linearly.
func backlogGrowing(samples []int, minGrowth float64) bool {
	n := len(samples)
	if n < 4 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, b := range samples {
		x, y := float64(i), float64(b)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	fn := float64(n)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	return slope*(fn-1) > minGrowth
}

// limitCheck is the verdict on one step against a latency limit.
type limitCheck struct {
	tail     float64 // ms at the tail percentile (failures included)
	q        float64 // quantile used (see tailQuantile)
	growing  bool
	lagging  bool
	meets    bool
	failures int
}

// tailWindows is how many schedule windows windowed tails use.
const tailWindows = 5

// judge applies a workload's latency limit to a step: the tail
// percentile (failures count as missing it) must stay under limitMS,
// the backlog must not grow by more than 5% of the step's requests, no
// request may fail, and the generator
// itself must have kept to its schedule: its median hand-off lag must
// stay under lagMS. (Lag spikes are host or scheduler stalls that the
// due-time latency already charges; a generator that has fallen behind
// is late on typical hand-offs.)
func judge(r stepResult, limitMS, lagMS float64, workers int) limitCheck {
	v, q := r.lat.tail()
	lc := limitCheck{
		tail:     v,
		q:        q,
		growing:  r.aborted || backlogGrowing(r.backlog, math.Max(2*float64(workers), 0.05*float64(len(r.lat)))),
		lagging:  r.lag.median() > lagMS,
		failures: r.lat.failures(),
	}
	lc.meets = q > 0 && v <= limitMS && !lc.growing && !lc.lagging && lc.failures == 0
	return lc
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
