package main

import (
	"runtime"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		want  float64
		wantK bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},   // exactly ten beyond
		{100, 99, 99, false},  // one beyond
		{1000, 99, 990, true}, // exactly ten beyond
		{999, 99, 990, false}, // rank ceil(989.01) = 990 leaves nine
		{1, 50, 1, false},
		{3, 100, 3, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantK)
		}
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Errorf("percentile(empty) = %v, %v; want 0, false", v, ok)
	}
}

func TestWindowedIgnoresABadWindow(t *testing.T) {
	// Ten one-second windows of 100 samples each; window 3 is ten times
	// slower. Its own p90 is out of line, the median over windows is not.
	var xs, at []time.Duration
	for w := 0; w < 10; w++ {
		for i := 1; i <= 100; i++ {
			x := time.Duration(i) * time.Microsecond
			if w == 3 {
				x *= 10
			}
			xs = append(xs, x)
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	got, ok := windowed(xs, at, 10*time.Second, 90, time.Microsecond)
	if got != 90 || !ok {
		t.Fatalf("windowed p90 = %v, %v; want 90, true", got, ok)
	}
	// Without completion times the samples are pooled: the slow window
	// now lifts the p90.
	pooled, ok := windowed(xs, nil, 10*time.Second, 90, time.Microsecond)
	if pooled <= 90 || !ok {
		t.Fatalf("pooled p90 = %v, %v; want above 90, true", pooled, ok)
	}
}

func TestWindowedWidensWindowsForSupport(t *testing.T) {
	// 40 samples a second for 12 s: a one-second window cannot support
	// a p90 with ten beyond (it needs 100), three-second windows can.
	var xs, at []time.Duration
	for i := 0; i < 480; i++ {
		xs = append(xs, time.Duration(i%40+1)*time.Microsecond)
		at = append(at, time.Duration(i)*time.Second/40)
	}
	if got, ok := windowed(xs, at, 12*time.Second, 90, time.Microsecond); got != 36 || !ok {
		t.Fatalf("windowed p90 = %v, %v; want 36, true", got, ok)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 40},
		{Parent: 1, Start: 30, End: 60},  // overlaps the first: [10,60] counts once
		{Parent: 1, Start: 20, End: 25},  // inside the first
		{Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped to [90,100]
	}
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestSpanSummarySelfTime(t *testing.T) {
	r := newSpanRecorder()
	r.spans = []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70},
	}
	sum := r.summarize()
	want := map[string]spanSummary{
		"a": {Name: "a", Count: 1, TotalNS: 100, SelfNS: 40},
		"b": {Name: "b", Count: 2, TotalNS: 70, SelfNS: 70},
	}
	for _, s := range sum {
		if s != want[s.Name] {
			t.Errorf("summary %+v, want %+v", s, want[s.Name])
		}
	}
}

// fakeClock is a clock the open-loop test advances by hand.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) wait(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	start := time.Unix(0, 0)
	c := &fakeClock{now: start}
	ms := time.Millisecond
	// Requests are due every 10 ms; the first takes 25 ms, the rest 1 ms.
	send := func(n int) bool {
		if n == 0 {
			c.now = c.now.Add(25 * ms)
		} else {
			c.now = c.now.Add(ms)
		}
		return true
	}
	lat, late, ok := openLoop(start, 0, 10*ms, start.Add(40*ms), c.Now, c.wait, send)
	// Request 1 was due at 10 ms but could only go at 25 ms: its
	// latency counts the 15 ms it waited behind the stall.
	wantLat := []time.Duration{25 * ms, 16 * ms, 7 * ms, 1 * ms}
	wantLate := []time.Duration{0, 15 * ms, 6 * ms, 0}
	if len(lat) != len(wantLat) || len(ok) != len(wantLat) {
		t.Fatalf("got %d latencies, want %d", len(lat), len(wantLat))
	}
	for i := range wantLat {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] || !ok[i] {
			t.Errorf("request %d: latency %v late %v ok %v; want %v, %v, true",
				i, lat[i], late[i], ok[i], wantLat[i], wantLate[i])
		}
	}
}

// TestThreadCPUSkipsWaits checks the premise of the gated metrics: a
// thread's CPU clock advances while it computes and stands still while
// it sleeps.
func TestThreadCPUSkipsWaits(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	slept := threadCPU() - c0
	c0 = threadCPU()
	for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
	}
	spun := threadCPU() - c0
	if slept > 10*time.Millisecond {
		t.Errorf("sleeping 50ms cost %v of thread CPU", slept)
	}
	if spun <= slept {
		t.Errorf("spinning 20ms cost %v of thread CPU, sleeping %v", spun, slept)
	}
	if p := processCPU(); p < spun {
		t.Errorf("process CPU %v below one thread's %v", p, spun)
	}
}

// TestMergeClientsProgramCPU checks that the clients' own CPU outside
// their calls into the program is taken off the process's.
func TestMergeClientsProgramCPU(t *testing.T) {
	ms := time.Millisecond
	results := []*loadResult{{acked: 3, opCPU: []time.Duration{ms}}, {acked: 4}}
	total := mergeClients(results, time.Second, 100*ms, []time.Duration{10 * ms, 5 * ms})
	if total.progCPU != 85*ms || total.acked != 7 || total.busy != time.Second || len(total.opCPU) != 1 {
		t.Fatalf("merged: progCPU %v acked %d busy %v ops %d; want 85ms, 7, 1s, 1",
			total.progCPU, total.acked, total.busy, len(total.opCPU))
	}
}

// TestWorkCountersRepeat is the benchmark's self-test: the traced
// replay's work counters depend only on the seed, so two replays of
// the same inputs must agree exactly.
func TestWorkCountersRepeat(t *testing.T) {
	workloads := []string{"serve-durable", "serve-trickle", "learn-b150"}
	if testing.Short() {
		workloads = workloads[:2]
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var runs [2]map[string]metric
			for k := range runs {
				in, err := makeInputs(w, 7, time.Second, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				ls, err := replayLayers(in, t.TempDir(), nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[k] = layerMetrics(ls)
			}
			for _, name := range workCounters {
				a, b := runs[0][name].Value, runs[1][name].Value
				if a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
				if a == 0 && name != "engine.pruned_duplicate" {
					t.Errorf("%s is zero", name)
				}
			}
		})
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := newSpanRecorder()
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				sp := r.begin("outer", 0)
				r.add("inner", sp, time.Microsecond)
				r.end(sp)
			}
		}()
	}
	<-done
	<-done
	if len(r.spans) != 2000 {
		t.Fatalf("%d spans, want 2000", len(r.spans))
	}
	for _, s := range r.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}

// TestLoadsCheckOut drives both serve loads briefly against a real
// in-process server and holds every stream to the offline reference.
func TestLoadsCheckOut(t *testing.T) {
	for _, w := range []string{"serve-durable", "serve-trickle"} {
		t.Run(w, func(t *testing.T) {
			in, err := makeInputs(w, 3, time.Second, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(in.streams) > 4 {
				in.streams = in.streams[:4]
			}
			srv, err := startServer(t.TempDir(), in)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.close()
			fs := newFeedState(len(in.streams))
			var res *loadResult
			if w == "serve-durable" {
				res = runDurable(in, srv, fs, 300*time.Millisecond, nil)
			} else {
				res = runTrickle(in, srv, fs, 300*time.Millisecond, newSpanRecorder())
			}
			res.merge(checkStreams(in, srv, fs))
			if res.failed != 0 || res.attempted == 0 || len(res.ingest) == 0 {
				t.Fatalf("attempted %d, failed %d, %d ingest samples: %v", res.attempted, res.failed, len(res.ingest), res.errs)
			}
		})
	}
}
