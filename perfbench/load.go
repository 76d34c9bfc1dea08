package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// clients is the number of client goroutines driving a serve workload.
const clients = 2

// loadResult is what one measured run of a workload observed.
type loadResult struct {
	// ack: a whole period handed to the program until the program
	// answers for it. ingest: one request (or, in learn-b150, one
	// period's text) until it is accepted. late: how far behind its
	// schedule the generator sent.
	ack, ingest, late []time.Duration
	// ackAt and ingestAt say when each ack and ingest sample completed,
	// since the start of the run, for the per-window statistics of the
	// serve workloads.
	ackAt, ingestAt []time.Duration
	// repRates is learn-b150's periods per second of each repetition.
	repRates []float64
	// opCPU is the CPU time of each operation on the request path,
	// taken on the calling thread: in learn-b150 one period inside
	// Learn, in serve-durable one acknowledgement (POST the period,
	// GET the model), in serve-trickle one POST.
	opCPU []time.Duration
	// progCPU is the CPU time the program spent in the run: the
	// process's, less what the load's clients spent outside their
	// calls into the program (pacing, checks, bookkeeping).
	progCPU           time.Duration
	acked             int           // periods acknowledged
	busy              time.Duration // wall time the rates divide by
	attempted, failed int
	shed              int
	errs              []string
}

func (r *loadResult) fail(n int, err error) {
	r.failed += n
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.ack = append(r.ack, o.ack...)
	r.ingest = append(r.ingest, o.ingest...)
	r.late = append(r.late, o.late...)
	r.ackAt = append(r.ackAt, o.ackAt...)
	r.ingestAt = append(r.ingestAt, o.ingestAt...)
	r.repRates = append(r.repRates, o.repRates...)
	r.opCPU = append(r.opCPU, o.opCPU...)
	r.progCPU += o.progCPU
	r.acked += o.acked
	r.attempted += o.attempted
	r.shed += o.shed
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
}

// owner assigns stream i to a client so that each client gets both
// feed formats of serve-trickle (which alternate by stream index).
func owner(i int) int { return (i / 2) % clients }

// engineTap is the benchmark's Observer on the learner: it times each
// period from the engine's own period boundaries, records the period
// and the engine's phase timings as spans under parent, and counts
// prunes and the hypotheses live after each message.
type engineTap struct {
	obs.NopObserver
	rec    *spanRecorder
	parent int
	cur    int
	start  time.Time
	cpu0   time.Duration
	lat    []time.Duration  // per period
	cpu    []time.Duration  // per period, the calling thread's CPU time
	phase  map[string]int64 // ns by phase, summed until the caller clears it
	dup    int64
	red    int64
	live   int64
}

func newEngineTap(rec *spanRecorder, parent int) *engineTap {
	return &engineTap{rec: rec, parent: parent, phase: map[string]int64{}}
}

func (t *engineTap) OnPeriodStart(obs.PeriodStart) {
	t.cur = t.rec.begin("learner.period", t.parent)
	t.start = time.Now()
	t.cpu0 = threadCPU()
}

func (t *engineTap) OnPeriodEnd(obs.PeriodEnd) {
	t.cpu = append(t.cpu, threadCPU()-t.cpu0)
	t.lat = append(t.lat, time.Since(t.start))
	t.rec.end(t.cur)
}

func (t *engineTap) OnSpan(e obs.SpanEnd) {
	t.rec.add("engine."+e.Phase, t.cur, time.Duration(e.ElapsedNS))
	t.phase[e.Phase] += e.ElapsedNS
}

func (t *engineTap) OnHypothesisPruned(e obs.HypothesisPruned) {
	switch e.Reason {
	case "duplicate":
		t.dup++
	case "redundant":
		t.red++
	}
}

func (t *engineTap) OnMessageProcessed(e obs.MessageProcessed) { t.live += int64(e.Live) }

// runLearn learns the workload's long trace with learner.Learn, again
// and again until the run time is spent (and at least minLearnReps
// times). Each repetition first cuts the text feed into periods, which
// is the workload's ingest. The engine runs on the calling goroutine,
// which stays on its thread, so the engine's period boundaries give
// each period's CPU time too.
func runLearn(in *inputs, d time.Duration, rec *spanRecorder) *loadResult {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := &loadResult{}
	st := in.streams[0]
	deadline := time.Now().Add(d)
	var first *learner.Result
	var firstTrace *trace.Trace
	var prevEnd time.Time
	// Each repetition starts from a collected heap, so no garbage of
	// the set-up or of the previous repetition is collected during its
	// ingest.
	runtime.GC()
	for reps := 0; reps < minLearnReps || time.Now().Before(deadline); reps++ {
		start := time.Now()
		if !prevEnd.IsZero() {
			res.late = append(res.late, start.Sub(prevEnd))
		}
		rep := rec.begin("learn.rep", 0)
		fp, err := newFeedParser(st)
		if err != nil {
			res.fail(1, err)
			return res
		}
		tr := &trace.Trace{Tasks: in.tasks}
		for _, body := range st.requests {
			t0 := time.Now()
			ps, err := fp.feedBody(body)
			res.ingest = append(res.ingest, time.Since(t0))
			if err != nil {
				res.fail(1, err)
				return res
			}
			tr.Periods = append(tr.Periods, ps...)
		}
		tap := newEngineTap(rec, rep)
		opts := in.learnOpts
		opts.Observer = tap
		t0, c0 := time.Now(), processCPU()
		r, err := learner.Learn(tr, opts)
		learnTime := time.Since(t0)
		res.progCPU += processCPU() - c0
		res.busy += learnTime
		rec.end(rep)
		runtime.GC()
		prevEnd = time.Now()
		res.attempted += len(tr.Periods)
		if err != nil {
			res.fail(len(tr.Periods), err)
			continue
		}
		res.ack = append(res.ack, tap.lat...)
		res.opCPU = append(res.opCPU, tap.cpu...)
		res.repRates = append(res.repRates, float64(len(tr.Periods))/learnTime.Seconds())
		res.acked += len(tr.Periods)
		if first == nil {
			first, firstTrace = r, tr
		} else if err := sameResult(first, r); err != nil {
			res.fail(len(tr.Periods), err)
		}
	}
	if first != nil {
		// Theorem 2: every returned hypothesis matches every period.
		for i, d := range first.Hypotheses {
			if ok, at := depfunc.MatchTrace(d, firstTrace, in.learnOpts.Policy); !ok {
				res.fail(len(firstTrace.Periods), fmt.Errorf("hypothesis %d does not match period %d", i, at))
				break
			}
		}
	}
	return res
}

// sameResult reports whether two learning runs returned the same
// hypotheses and LUB.
func sameResult(a, b *learner.Result) error {
	if len(a.Hypotheses) != len(b.Hypotheses) {
		return fmt.Errorf("repeat returned %d hypotheses, first run %d", len(b.Hypotheses), len(a.Hypotheses))
	}
	for i := range a.Hypotheses {
		if !a.Hypotheses[i].Equal(b.Hypotheses[i]) {
			return fmt.Errorf("repeat differs from the first run at hypothesis %d", i)
		}
	}
	if !a.LUB.Equal(b.LUB) {
		return fmt.Errorf("repeat LUB differs from the first run")
	}
	return nil
}

// runDurable is a closed loop of two clients over the durable streams:
// POST one whole period, then GET the model, which the server answers
// only once that period is learned and its WAL record fsynced. Each
// client owns its streams, so every model it reads must cover exactly
// the periods it has sent. Each client stays on its thread, so the
// thread's CPU time across its calls into the handler is theirs.
func runDurable(in *inputs, srv *server, fs *feedState, d time.Duration, rec *spanRecorder) *loadResult {
	results := make([]*loadResult, clients)
	outside := make([]time.Duration, clients)
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		var mine []int
		for i := range in.streams {
			if owner(i) == c {
				mine = append(mine, i)
			}
		}
		res := &loadResult{}
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var inCalls time.Duration
			own0 := threadCPU()
			defer func() { outside[c] = threadCPU() - own0 - inCalls }()
			due := start
			for n := 0; time.Now().Before(deadline); n++ {
				i := mine[n%len(mine)]
				st := in.streams[i]
				body := st.requests[len(fs.accepted[i])%len(st.requests)]
				t0, c0 := time.Now(), threadCPU()
				res.late = append(res.late, t0.Sub(due))
				ack := rec.begin("client.ack", 0)
				sp := rec.begin("client.events", ack)
				code, out := srv.do("POST", "/v1/streams/"+st.id+"/events", body)
				rec.end(sp)
				t1 := time.Now()
				res.attempted++
				if code != http.StatusAccepted {
					rec.end(ack)
					inCalls += threadCPU() - c0
					due = time.Now()
					if code == http.StatusTooManyRequests {
						res.shed++
					}
					res.fail(1, fmt.Errorf("events %s: HTTP %d: %s", st.id, code, out))
					continue
				}
				fs.accepted[i] = append(fs.accepted[i], body)
				res.ingest = append(res.ingest, t1.Sub(t0))
				res.ingestAt = append(res.ingestAt, t1.Sub(start))
				sp = rec.begin("client.model", ack)
				code, out = srv.do("GET", "/v1/streams/"+st.id+"/model", "")
				rec.end(sp)
				rec.end(ack)
				op := threadCPU() - c0
				inCalls += op
				t2 := time.Now()
				due = t2
				var m serve.ModelResponse
				switch {
				case code != http.StatusOK:
					res.fail(1, fmt.Errorf("model %s: HTTP %d: %s", st.id, code, out))
				case json.Unmarshal(out, &m) != nil || m.Periods != len(fs.accepted[i]):
					res.fail(1, fmt.Errorf("model %s: covers %d periods after %d sent", st.id, m.Periods, len(fs.accepted[i])))
				default:
					res.ack = append(res.ack, t2.Sub(t0))
					res.ackAt = append(res.ackAt, t2.Sub(start))
					res.opCPU = append(res.opCPU, op)
					res.acked++
				}
			}
		}()
	}
	wg.Wait()
	return mergeClients(results, time.Since(start), processCPU()-cpu0, outside)
}

// mergeClients totals the clients' results of a run that lasted busy,
// in which the process spent cpu and each client spent outside[c] of
// it outside its calls into the program.
func mergeClients(results []*loadResult, busy, cpu time.Duration, outside []time.Duration) *loadResult {
	total := &loadResult{busy: busy, progCPU: cpu}
	for c, r := range results {
		total.merge(r)
		total.progCPU -= outside[c]
	}
	return total
}

// sleepUntil waits for t: it sleeps in the kernel until shortly
// before t and spins for the rest, so the open loop sends on time. The
// runtime's own timers wake up to a millisecond late on a small VM,
// which would swamp the latencies being measured.
func sleepUntil(t time.Time) {
	const spin = 60 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep ends in the spin
	}
	for time.Now().Before(t) {
		// Busy-wait: yielding here would park the locked thread and
		// wake it late.
	}
}

// preciseSleeper pins the calling goroutine to its thread and sets the
// thread's timer slack to 1 ns, so sleepUntil's kernel sleeps end
// within microseconds. The returned func undoes the pinning.
func preciseSleeper() func() {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only costs precision
	return runtime.UnlockOSThread
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// openLoop runs one client's schedule: request n is due at
// start+phase+n*interval whatever happened to earlier requests, and
// send's latency is taken from the due time, so a stall also delays
// every request queued behind it. send reports whether the request
// was accepted; lateness is how far behind schedule it went out.
func openLoop(start time.Time, phase, interval time.Duration, until time.Time,
	now func() time.Time, wait func(time.Time), send func(n int) bool) (lat, late []time.Duration, ok []bool) {
	for n := 0; ; n++ {
		due := start.Add(phase + time.Duration(n)*interval)
		if !due.Before(until) {
			return lat, late, ok
		}
		wait(due)
		late = append(late, now().Sub(due))
		accepted := send(n)
		lat = append(lat, now().Sub(due))
		ok = append(ok, accepted)
	}
}

// runTrickle is an open loop at a fixed offered rate: two clients each
// send every other request of the schedule, a few feed lines at a
// time, round-robin over their streams. No model is read until the run
// is over.
func runTrickle(in *inputs, srv *server, fs *feedState, d time.Duration, rec *spanRecorder) *loadResult {
	results := make([]*loadResult, clients)
	outside := make([]time.Duration, clients)
	cpu0 := processCPU()
	interval := time.Duration(clients) * time.Second / trickleReqPerSec
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	until := start.Add(d)
	for c := 0; c < clients; c++ {
		var mine []int
		for i := range in.streams {
			if owner(i) == c {
				mine = append(mine, i)
			}
		}
		res := &loadResult{}
		results[c] = res
		phase := time.Duration(c) * time.Second / trickleReqPerSec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer preciseSleeper()()
			var inCalls time.Duration
			own0 := threadCPU()
			defer func() { outside[c] = threadCPU() - own0 - inCalls }()
			closes := map[int]bool{} // requests that completed a period
			send := func(n int) bool {
				i := mine[n%len(mine)]
				st := in.streams[i]
				if fs.next[i] >= len(st.requests) {
					res.fail(1, fmt.Errorf("stream %s: feed exhausted", st.id))
					return false
				}
				body := st.requests[fs.next[i]]
				fs.next[i]++
				c0 := threadCPU()
				sp := rec.begin("client.events", 0)
				code, out := srv.do("POST", "/v1/streams/"+st.id+"/events", body)
				rec.end(sp)
				op := threadCPU() - c0
				inCalls += op
				res.attempted++
				if code != http.StatusAccepted {
					if code == http.StatusTooManyRequests {
						res.shed++
					}
					res.fail(1, fmt.Errorf("events %s: HTTP %d: %s", st.id, code, out))
					return false
				}
				fs.accepted[i] = append(fs.accepted[i], body)
				res.opCPU = append(res.opCPU, op)
				var ir serve.IngestResponse
				if err := json.Unmarshal(out, &ir); err != nil {
					res.fail(1, err)
					return false
				}
				if ir.Periods > 0 {
					closes[n] = true
					res.acked += ir.Periods
				}
				return true
			}
			lat, late, ok := openLoop(start, phase, interval, until, time.Now, sleepUntil, send)
			res.late = late
			for n, l := range lat {
				if !ok[n] {
					continue
				}
				at := phase + time.Duration(n)*interval + l
				res.ingest = append(res.ingest, l)
				res.ingestAt = append(res.ingestAt, at)
				if closes[n] {
					res.ack = append(res.ack, l)
					res.ackAt = append(res.ackAt, at)
				}
			}
		}()
	}
	wg.Wait()
	return mergeClients(results, until.Sub(start), processCPU()-cpu0, outside)
}

// feedState is where each stream's feed stands across the runs made on
// one server: the bodies the server accepted, in order, and (for
// open-loop feeds, which move on past a refused body) the next body.
// Each stream is touched only by the client that owns it.
type feedState struct {
	accepted [][]string
	next     []int
}

func newFeedState(n int) *feedState {
	return &feedState{accepted: make([][]string, n), next: make([]int, n)}
}

// checkStreams holds every stream's served model to the offline
// reference and counts a failure for each stream whose model is wrong.
func checkStreams(in *inputs, srv *server, fs *feedState) *loadResult {
	bad := &loadResult{}
	for i, st := range in.streams {
		if err := srv.checkServed(st, fs.accepted[i]); err != nil {
			bad.fail(1, err)
		}
	}
	return bad
}
