package learner_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/conformance"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// This file is the differential oracle tier for the packed
// word-parallel lattice kernel: every learning result is re-derived
// scalar-side through depfunc.Reference (the retained table-driven
// kernel) and the packed and scalar sides must agree on every matrix
// entry, fingerprint, weight and canonical key — over the full golden
// conformance corpus and a few hundred randomized simulated traces,
// each learned twice in one process. It lives in the external test package
// because the golden corpus generator imports the learner.

// packedReplaySeed replays one randomized case in isolation (the
// packed-tier analogue of -modelgen.seed, which the in-package
// differential suite already claims).
var packedReplaySeed = flag.Int64("modelgen.packedseed", -1, "replay the packed-oracle case with this seed only")

// packedSig collapses a result into a comparable signature, keyed on
// canonical keys and fingerprints of every hypothesis and the LUB.
func packedSig(r *learner.Result) []string {
	sig := make([]string, 0, len(r.Hypotheses)+2)
	for _, d := range r.Hypotheses {
		sig = append(sig, fmt.Sprintf("%s#%016x", d.Key(), d.Fingerprint()))
	}
	sig = append(sig, fmt.Sprintf("LUB:%s#%016x", r.LUB.Key(), r.LUB.Fingerprint()),
		fmt.Sprintf("converged:%v", r.Converged))
	return sig
}

// refVerify replays every returned matrix through the scalar reference
// kernel: each hypothesis must match its scalar reconstruction cell by
// cell, fingerprint, weight and key, and the packed LUB must equal the
// scalar fold of the hypotheses under the table-driven join.
func refVerify(r *learner.Result) error {
	var lub *depfunc.Reference
	for i, d := range r.Hypotheses {
		ref := depfunc.RefOf(d)
		if err := ref.Matches(d); err != nil {
			return fmt.Errorf("hypothesis %d: %w", i, err)
		}
		if lub == nil {
			lub = ref
		} else {
			lub.JoinWith(ref)
		}
	}
	if lub != nil {
		if err := lub.Matches(r.LUB); err != nil {
			return fmt.Errorf("LUB vs scalar join fold: %w", err)
		}
	}
	return nil
}

// comparableEvents filters a recorded stream down to the kinds that
// are defined to be identical across runs (run_end and span carry
// wall-clock durations).
func comparableEvents(events []obs.Event) []obs.Event {
	out := make([]obs.Event, 0, len(events))
	for _, e := range events {
		switch e.Kind() {
		case "period_start", "message_processed", "hypothesis_spawned",
			"hypothesis_merged", "hypothesis_pruned", "period_end":
			out = append(out, e)
		}
	}
	return out
}

// checkRuns runs Learn over tr at the given options twice in this
// process and fails unless both runs produce identical signatures,
// statistics and event streams and both results verify against the
// scalar reference kernel. It returns the first result.
func checkRuns(tr *trace.Trace, opt learner.Options) (*learner.Result, error) {
	type run struct {
		res    *learner.Result
		events []obs.Event
	}
	runs := make([]run, 0, 2)
	for i := 0; i < 2; i++ {
		o := opt
		rec := obs.NewRecorder()
		o.Observer = rec
		res, err := learner.Learn(tr, o)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		if err := refVerify(res); err != nil {
			return nil, fmt.Errorf("run %d: scalar reference disagrees: %w", i, err)
		}
		runs = append(runs, run{res, comparableEvents(rec.Events())})
	}
	base, r := runs[0], runs[1]
	if got, want := packedSig(r.res), packedSig(base.res); !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("second run diverges from the first:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(r.res.Stats.PeriodLive, base.res.Stats.PeriodLive) ||
		r.res.Stats.Children != base.res.Stats.Children ||
		r.res.Stats.Merges != base.res.Stats.Merges ||
		r.res.Stats.Relaxations != base.res.Stats.Relaxations {
		return nil, fmt.Errorf("second run's stats diverge: %+v vs %+v", r.res.Stats, base.res.Stats)
	}
	if !reflect.DeepEqual(r.events, base.events) {
		return nil, fmt.Errorf("second run's event stream diverges (%d vs %d comparable events)",
			len(r.events), len(base.events))
	}
	return base.res, nil
}

// TestPackedOracleConformanceCorpus runs the packed-vs-scalar oracle
// over every entry of the golden conformance corpus, at every bound
// the entry's manifest declares (plus the exact mode where tractable),
// twice each.
func TestPackedOracleConformanceCorpus(t *testing.T) {
	c, err := conformance.GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries {
		bounds := append([]int(nil), e.Bounds...)
		if e.Exact {
			bounds = append(bounds, 0)
		}
		for _, bound := range bounds {
			opt := learner.Options{
				Bound:         bound,
				Policy:        e.Policy(),
				MaxHypotheses: conformance.MaxExactHypotheses,
			}
			if _, err := checkRuns(e.Trace, opt); err != nil {
				t.Errorf("entry %s bound %d: %v", e.Name, bound, err)
			}
		}
	}
}

// TestPackedOracleRandomTraces sweeps the oracle over ~500 randomized
// simulated traces: random layered designs and the pinned catalog
// models under randomized schedules, in the bounded mode and — where
// tractable — the exact mode.
func TestPackedOracleRandomTraces(t *testing.T) {
	if *packedReplaySeed >= 0 {
		runPackedOracleCase(t, *packedReplaySeed)
		return
	}
	if testing.Short() {
		t.Skip("packed differential sweep is slow")
	}
	cases := 0
	for iter := int64(0); cases < 500; iter++ {
		cases += runPackedOracleCase(t, packedOracleBaseSeed+iter)
	}
}

// packedOracleBaseSeed offsets case seeds so a replayed seed is
// self-identifying.
const packedOracleBaseSeed = 2203_000_000

func runPackedOracleCase(t *testing.T, seed int64) (cases int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -run TestPackedOracleRandomTraces -modelgen.packedseed=%d",
			seed, fmt.Sprintf(format, args...), seed)
	}
	rng := rand.New(rand.NewSource(seed))
	var m *model.Model
	switch seed % 8 {
	case 0:
		m = model.Figure1()
	case 1:
		m = model.GMStyleLite()
	default:
		opt := model.DefaultRandomOptions()
		opt.Layers = 2 + rng.Intn(2)
		opt.TasksPerLayer = 1 + rng.Intn(2)
		opt.EdgeProb = 0.3 + rng.Float64()*0.6
		m = model.RandomModel(rng, opt)
	}
	out, err := sim.Run(m, sim.Options{Periods: 3 + rng.Intn(4), Seed: seed})
	if err != nil {
		fail("sim: %v", err)
	}
	for _, bound := range []int{0, 4 + int(seed%5)} {
		opt := learner.Options{Bound: bound, MaxHypotheses: 2000}
		if _, err := checkRuns(out.Trace, opt); err != nil {
			if bound == 0 && errors.Is(err, learner.ErrTooManyHypotheses) {
				continue // intractable exact case; doesn't count
			}
			fail("bound %d: %v", bound, err)
		}
		cases++
	}
	return cases
}
