package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBacklogGrowing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []int
		want    bool
	}{
		{"empty", nil, false},
		{"too short to judge", []int{0, 50, 100}, false},
		{"idle", []int{0, 0, 1, 0, 0, 1, 0, 0}, false},
		{"steady queue", []int{6, 8, 5, 7, 6, 8, 7, 6}, false},
		{"noise within slack", []int{0, 1, 0, 2, 3, 2, 4, 3}, false},
		{"pause that drains", []int{0, 1, 0, 30, 12, 2, 1, 0}, false},
		{"linear growth", []int{2, 10, 20, 30, 40, 50, 60, 70}, true},
		{"late pile-up", []int{1, 1, 1, 1, 1, 40, 80, 120}, true},
	} {
		if got := backlogGrowing(tc.samples, 4); got != tc.want {
			t.Errorf("%s: backlogGrowing(%v) = %v, want %v", tc.name, tc.samples, got, tc.want)
		}
	}
}

// A refused (429) or timed-out request is a failure: it is counted
// against attempted, recorded as an infinite latency, and makes the
// step miss its limit however fast the other requests were.
func TestOpenLoopCountsRefusalsAndTimeouts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "/slow":
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, 100*time.Millisecond)
	defer c.close()

	var calls []call
	for i := 0; i < 40; i++ {
		p := "/ok"
		switch i {
		case 7:
			p = "/shed"
		case 23:
			p = "/slow"
		}
		calls = append(calls, call{method: "GET", path: p, endpoint: p[1:]})
	}
	verify := func(_ *call, r *reply, err error) bool { return err == nil && r.status == http.StatusOK }
	res := openLoop(context.Background(), c, calls, 400, 2, 1000, verify, nil)
	if res.failed != 2 || res.oks != 38 || res.sent != 40 {
		t.Fatalf("failed %d oks %d sent %d; want 2, 38, 40", res.failed, res.oks, res.sent)
	}
	if res.lat.failures() != 2 || !math.IsInf(res.lat[7], 1) || !math.IsInf(res.lat[23], 1) {
		t.Errorf("refused and timed-out requests must read +Inf latency: %v %v", res.lat[7], res.lat[23])
	}
	if jc := judge(res, 1e9, 1e9, 2); jc.meets || jc.failures != 2 {
		t.Errorf("a step with failures met its limit: %+v", jc)
	}
	if len(res.lag) != len(calls) {
		t.Errorf("lag recorded for %d of %d hand-offs", len(res.lag), len(calls))
	}
}

// A server slower than the offered rate builds a backlog: the step is
// abandoned once the backlog passes the abort threshold, and the calls
// never sent count as failed.
func TestOpenLoopAbandonsGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, time.Second)
	defer c.close()
	calls := make([]call, 2000)
	for i := range calls {
		calls[i] = call{method: "GET", path: "/", endpoint: "x"}
	}
	verify := func(_ *call, r *reply, err error) bool { return err == nil && r.status == http.StatusOK }
	// 2000/s offered to a server that completes ~200/s on one connection.
	res := openLoop(context.Background(), c, calls, 2000, 1, 50, verify, nil)
	if !res.aborted {
		t.Fatalf("overloaded step was not abandoned (backlog samples %v)", res.backlog)
	}
	if res.sent >= len(calls) || res.failed != len(calls)-res.oks {
		t.Errorf("sent %d failed %d oks %d of %d", res.sent, res.failed, res.oks, len(calls))
	}
	if jc := judge(res, 1e9, 1e9, 1); jc.meets || !jc.growing {
		t.Errorf("abandoned step judged %+v", jc)
	}
}

// A closed loop keeps its connections busy until the deadline; refused
// and timed-out requests are counted as failed and give no latency.
func TestClosedLoopCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case "/slow":
			time.Sleep(300 * time.Millisecond)
		default:
			time.Sleep(2 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 2, 100*time.Millisecond)
	defer c.close()

	seq := 0
	next := func() call {
		seq++
		p := "/ok"
		switch seq {
		case 7:
			p = "/shed"
		case 23:
			p = "/slow"
		}
		return call{method: "GET", path: p, endpoint: p[1:], seq: seq}
	}
	verify := func(_ *call, r *reply, err error) bool { return err == nil && r.status == http.StatusOK }
	res := closedLoop(context.Background(), c, next, 2, time.Now().Add(400*time.Millisecond), verify, nil)
	if res.sent != seq {
		t.Fatalf("sent %d of %d calls drawn", res.sent, seq)
	}
	if res.failed != 2 || len(res.lat) != res.sent-2 || len(res.done) != len(res.lat) {
		t.Errorf("sent %d failed %d latencies %d completions %d; want 2 failures and one latency per success", res.sent, res.failed, len(res.lat), len(res.done))
	}
	if len(res.svc["shed"]) != 0 || len(res.svc["slow"]) != 0 {
		t.Errorf("failed requests recorded latencies: %v", res.svc)
	}
	if res.wall < 400*time.Millisecond {
		t.Errorf("loop ended after %v, before its deadline", res.wall)
	}
}

func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	done := []time.Duration{10 * ms, 20 * ms, 90 * ms, 110 * ms, 150 * ms, 260 * ms}
	got := windowRates(done, 250*ms, 100*ms)
	want := sample{30, 20} // the partial window [200, 250) ms is dropped
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	if windowRates(done, 50*ms, 100*ms) != nil {
		t.Errorf("a phase shorter than one window has no rate")
	}
}
