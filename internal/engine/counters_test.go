package engine

import (
	"fmt"
	"slices"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/bench"
	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// caseStudy simulates the 27-period, 18-task case-study trace that
// bbbench sweeps (seed 7).
func caseStudy(tb testing.TB) *trace.Trace {
	tb.Helper()
	out, err := casestudy.FullTrace()
	if err != nil {
		tb.Fatal(err)
	}
	return out.Trace
}

// TestCaseStudyWorkCounters pins the engine's work counters on the
// case-study trace. They are deterministic for the fixed seed and do
// not depend on the host, so unlike wall time they can be gated
// exactly: any change to candidate enumeration, generation order,
// deduplication or the work list's tie order (lightest first, first
// in first out among equal weights) moves at least one of them.
// Merges and peak come from the committed BENCH_local.json; children
// and candidates are not recorded there and are pinned here.
func TestCaseStudyWorkCounters(t *testing.T) {
	baseline, err := bench.ReadFile("../../BENCH_local.json")
	if err != nil {
		t.Fatal(err)
	}
	tr := caseStudy(t)
	for _, c := range []struct{ bound, children, candidates int }{
		{1, 9_720, 9_720},
		{50, 156_273, 9_720},
		{150, 383_920, 9_720},
	} {
		i := slices.IndexFunc(baseline.Runs, func(r bench.Run) bool { return r.Name == fmt.Sprintf("bound_%d", c.bound) })
		if i < 0 {
			t.Fatalf("BENCH_local.json has no bound_%d run", c.bound)
		}
		want := baseline.Runs[i]
		st := runEngine(t, tr, Config{Bound: c.bound, Policy: casestudy.FullPolicy()}).Stats()
		if st.Merges != want.Merges || st.Peak != want.PeakLive {
			t.Errorf("bound %d: merges %d peak %d, BENCH_local.json has %d and %d",
				c.bound, st.Merges, st.Peak, want.Merges, want.PeakLive)
		}
		if st.Children != c.children || st.Candidates != c.candidates {
			t.Errorf("bound %d: children %d candidates %d, want %d and %d",
				c.bound, st.Children, st.Candidates, c.children, c.candidates)
		}
	}
}

// stagedPeriod is one period with its candidate stage precomputed, so
// the generalize and postprocess stages can be measured on their own.
type stagedPeriod struct {
	p        *trace.Period
	cands    [][]depfunc.Pair
	live     Live
	executed []bool
}

// warmEngine learns tr twice at the given bound and returns the engine
// with tr's periods staged for replay.
func warmEngine(tb testing.TB, tr *trace.Trace, bound int) (*Engine, []stagedPeriod) {
	tb.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		tb.Fatal(err)
	}
	e := New(ts, Config{Bound: bound, Policy: casestudy.FullPolicy()})
	staged := make([]stagedPeriod, 0, len(tr.Periods))
	for round := 0; round < 2; round++ {
		for _, p := range tr.Periods {
			if err := e.ProcessPeriod(p); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for _, p := range tr.Periods {
		cands, live := e.EnumerateCandidates(p)
		live.bits = slices.Clone(live.bits)
		staged = append(staged, stagedPeriod{p, cands, live, execVector(p, ts)})
	}
	return e, staged
}

// maxAllocsPerPeriod is the allocation budget of one period's
// generalize plus postprocess stages on a warm engine, averaged over
// two passes of the trace. Every header, assumption cell, matrix
// buffer, work-list node, dedup slot and output buffer is recycled,
// so the steady state allocates nothing (measured: 0 at bounds 1, 50
// and 150); a pass that grows some buffer past its high-water mark
// rounds away in the average.
const maxAllocsPerPeriod = 0

// TestGeneralizeAllocs gates the engine's steady-state allocations: on
// a warm engine, generalize plus postprocess allocate at most
// maxAllocsPerPeriod objects per period, at every bound, however many
// children the period spawns.
func TestGeneralizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("learns the case study several times")
	}
	tr := caseStudy(t)
	for _, bound := range []int{1, 50, 150} {
		e, staged := warmEngine(t, tr, bound)
		i := 0
		allocs := testing.AllocsPerRun(2*len(staged), func() {
			sp := staged[i%len(staged)]
			i++
			if err := e.Generalize(sp.p, sp.cands, sp.live); err != nil {
				t.Fatal(err)
			}
			e.Postprocess(sp.p, sp.executed)
		})
		t.Logf("bound %d: %.0f allocations per period", bound, allocs)
		if allocs > maxAllocsPerPeriod {
			t.Errorf("bound %d: %.0f allocations per period, budget %d", bound, allocs, maxAllocsPerPeriod)
		}
	}
}

// BenchmarkGeneralizeB150 times one case-study period's generalize and
// postprocess stages at bound 150 on a warm engine. Run it with
// -benchmem: allocs/op is the steady-state figure TestGeneralizeAllocs
// gates.
func BenchmarkGeneralizeB150(b *testing.B) {
	e, staged := warmEngine(b, caseStudy(b), 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := staged[i%len(staged)]
		if err := e.Generalize(sp.p, sp.cands, sp.live); err != nil {
			b.Fatal(err)
		}
		e.Postprocess(sp.p, sp.executed)
	}
}
