package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// runEngine drives every period of the trace through a fresh engine
// and returns it.
func runEngine(t *testing.T, tr *trace.Trace, cfg Config) *Engine {
	t.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ts, cfg)
	for _, p := range tr.Periods {
		if err := e.ProcessPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// workingKeys returns the canonical keys of the engine's live set, in
// order.
func workingKeys(e *Engine) []string {
	out := make([]string, 0, e.WorkingSetSize())
	for _, h := range e.Working() {
		out = append(out, h.D.Key())
	}
	return out
}

// TestStageComposition: driving the three stages by hand produces the
// same working set as ProcessPeriod — the composed method adds only
// the period envelope, no hidden computation.
func TestStageComposition(t *testing.T) {
	tr := trace.PaperFigure2()
	whole := runEngine(t, tr, Config{})

	ts, _ := depfunc.NewTaskSet(tr.Tasks)
	manual := New(ts, Config{})
	for _, p := range tr.Periods {
		executed := execVector(p, manual.ts)
		cands, live := manual.EnumerateCandidates(p)
		if err := manual.Generalize(p, cands, live); err != nil {
			t.Fatal(err)
		}
		manual.Postprocess(p, executed)
		manual.stats.Periods++
		manual.stats.PeriodLive = append(manual.stats.PeriodLive, len(manual.cur))
	}
	if !reflect.DeepEqual(workingKeys(whole), workingKeys(manual)) {
		t.Errorf("manual stage composition diverges from ProcessPeriod:\n%v\n%v",
			workingKeys(whole), workingKeys(manual))
	}
	if !reflect.DeepEqual(whole.Stats(), manual.Stats()) {
		t.Errorf("stats diverge:\n%+v\n%+v", whole.Stats(), manual.Stats())
	}
}

// TestEngineStartEvent: New announces the session with the configured
// bound.
func TestEngineStartEvent(t *testing.T) {
	ts, _ := depfunc.NewTaskSet([]string{"a", "b"})
	rec := obs.NewRecorder()
	New(ts, Config{Bound: 7, Observer: rec})
	evs := rec.OfKind("engine_start")
	if len(evs) != 1 {
		t.Fatalf("engine_start events = %d", len(evs))
	}
	if e := evs[0].(obs.EngineStart); e.Bound != 7 {
		t.Errorf("engine_start = %+v, want bound 7", e)
	}
}

// normalizeEvents zeroes the span wall-clock durations, the only
// fields that legitimately differ between two equivalent runs.
func normalizeEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	for i, e := range events {
		if ev, ok := e.(obs.SpanEnd); ok {
			ev.ElapsedNS = 0
			e = ev
		}
		out[i] = e
	}
	return out
}

// TestRunDeterminism: a run is a pure function of its trace and
// configuration. Over the paper trace, in exact, bounded and
// eager-pruning modes, a second run in the same process and a run
// restored from a mid-trace State give bit-identical hypothesis sets
// and statistics, and the two full runs give identical event streams
// (even per-child spawn events and heuristic merges coincide). The
// engine reuses its buffers, freelists and dedup table across
// messages and periods, so this is also the check that nothing leaks
// from one use into the next.
func TestRunDeterminism(t *testing.T) {
	cfgs := []Config{{}, {Bound: 2}, {Bound: 4}, {Bound: 64}, {EagerPrune: true}, {Bound: 4, EagerPrune: true}}
	tr := trace.PaperFigure2()
	for _, cfg := range cfgs {
		baseRec := obs.NewRecorder()
		bcfg := cfg
		bcfg.Observer = baseRec
		base := runEngine(t, tr, bcfg)

		rec := obs.NewRecorder()
		rcfg := cfg
		rcfg.Observer = rec
		again := runEngine(t, tr, rcfg)
		if got, want := workingKeys(again), workingKeys(base); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: second run diverges:\n got %v\nwant %v", cfg, got, want)
		}
		if got, want := again.Stats(), base.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: second run's stats diverge:\n got %+v\nwant %+v", cfg, got, want)
		}
		if got, want := normalizeEvents(rec.Events()), normalizeEvents(baseRec.Events()); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: event streams diverge (%d vs %d events)", cfg, len(got), len(want))
		}

		ts, _ := depfunc.NewTaskSet(tr.Tasks)
		first := New(ts, cfg)
		if err := first.ProcessPeriod(tr.Periods[0]); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(ts, cfg, first.State())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tr.Periods[1:] {
			if err := restored.ProcessPeriod(p); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := workingKeys(restored), workingKeys(base); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: restored run diverges:\n got %v\nwant %v", cfg, got, want)
		}
		if got, want := restored.Stats(), base.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: restored run's stats diverge:\n got %+v\nwant %+v", cfg, got, want)
		}
	}
}

// workerRun is one engine's outcome in a concurrent-worker check.
type workerRun struct {
	keys   []string
	stats  Stats
	events []obs.Event
	err    error
}

// runWorkers learns the paper trace on `workers` goroutines at once,
// each owning its own engine. The engines share only the process-wide
// matrix buffer arena, as the streams of a server do.
func runWorkers(tr *trace.Trace, cfg Config, workers int) []workerRun {
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		return []workerRun{{err: err}}
	}
	out := make([]workerRun, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func(r *workerRun) {
			defer wg.Done()
			rec := obs.NewRecorder()
			wcfg := cfg
			wcfg.Observer = rec
			e := New(ts, wcfg)
			for _, p := range tr.Periods {
				if r.err = e.ProcessPeriod(p); r.err != nil {
					return
				}
			}
			r.keys, r.stats, r.events = workingKeys(e), e.Stats(), normalizeEvents(rec.Events())
		}(&out[w])
	}
	wg.Wait()
	return out
}

// TestWorkerDeterminism: parallelism lives across streams and runs,
// each engine on its own goroutine. For every worker count, exact and
// bounded engines learning the paper trace concurrently produce
// bit-identical hypothesis sets, statistics AND event streams to a
// lone run, so the shared buffer arena leaks nothing between owners.
func TestWorkerDeterminism(t *testing.T) {
	tr := trace.PaperFigure2()
	for _, bound := range []int{0, 2, 4, 64} {
		baseRec := obs.NewRecorder()
		base := runEngine(t, tr, Config{Bound: bound, Observer: baseRec})
		baseKeys := workingKeys(base)
		baseStats := base.Stats()
		baseEvents := normalizeEvents(baseRec.Events())
		for _, workers := range []int{2, 4, 8} {
			for i, r := range runWorkers(tr, Config{Bound: bound}, workers) {
				if r.err != nil {
					t.Fatalf("bound %d workers %d: worker %d: %v", bound, workers, i, r.err)
				}
				if !reflect.DeepEqual(r.keys, baseKeys) {
					t.Errorf("bound %d workers %d: worker %d's hypothesis set diverges:\n got %v\nwant %v",
						bound, workers, i, r.keys, baseKeys)
				}
				if !reflect.DeepEqual(r.stats, baseStats) {
					t.Errorf("bound %d workers %d: worker %d's stats diverge:\n got %+v\nwant %+v",
						bound, workers, i, r.stats, baseStats)
				}
				if !reflect.DeepEqual(r.events, baseEvents) {
					t.Errorf("bound %d workers %d: worker %d's event stream diverges (%d vs %d events)",
						bound, workers, i, len(r.events), len(baseEvents))
				}
			}
		}
	}
}

// TestWorkerDeterminismEagerPrune: the same guarantee with pruning
// inside generalization.
func TestWorkerDeterminismEagerPrune(t *testing.T) {
	tr := trace.PaperFigure2()
	base := workingKeys(runEngine(t, tr, Config{EagerPrune: true}))
	for i, r := range runWorkers(tr, Config{EagerPrune: true}, 4) {
		if r.err != nil {
			t.Fatalf("worker %d: %v", i, r.err)
		}
		if !reflect.DeepEqual(r.keys, base) {
			t.Errorf("EagerPrune: worker %d diverges from the lone run:\n got %v\nwant %v", i, r.keys, base)
		}
	}
}

// TestEngineErrors: an inexplicable message empties the set with
// ErrNoHypothesis wrapped in period/message context, and the exact
// algorithm respects MaxHypotheses.
func TestEngineErrors(t *testing.T) {
	tr := trace.PaperFigure2()
	ts, _ := depfunc.NewTaskSet(tr.Tasks)

	// A message with no feasible pair: empty period span, one message
	// with no surrounding executions.
	e := New(ts, Config{})
	bad := &trace.Period{Index: 9, Execs: map[string]trace.Interval{},
		Msgs: []trace.Message{{ID: "mX", Rise: 10, Fall: 20}}}
	err := e.ProcessPeriod(bad)
	if err == nil {
		t.Fatal("no error for an inexplicable message")
	}
	if !errors.Is(err, ErrNoHypothesis) {
		t.Errorf("error is not ErrNoHypothesis: %v", err)
	}
	if got := err.Error(); !strings.Contains(got, "period 9") || !strings.Contains(got, `"mX"`) {
		t.Errorf("error lacks period/message context: %v", got)
	}

	e2 := New(ts, Config{MaxHypotheses: 1})
	var failed error
	for _, p := range tr.Periods {
		if failed = e2.ProcessPeriod(p); failed != nil {
			break
		}
	}
	if failed == nil {
		t.Fatal("MaxHypotheses 1 did not trip on the paper trace")
	}
	if !errors.Is(failed, ErrTooManyHypotheses) {
		t.Errorf("error is not ErrTooManyHypotheses: %v", failed)
	}
}
