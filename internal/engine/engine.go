// Package engine is the period-processing core of the learner: the
// candidate-enumeration, per-message generalization and end-of-period
// post-processing stages of Feng et al.'s algorithm (DATE 2007,
// Section 3), factored out of the batch/online front-ends so both
// drive the identical machinery.
//
// # Stage API
//
// An Engine holds the mutable run state (working hypothesis set,
// cumulative execution-violation history, statistics). Each period is
// consumed by three explicit stages:
//
//  1. EnumerateCandidates — timing-feasible (sender, receiver) pairs
//     per message, plus the live-suffix sets used to forget dead
//     assumptions early.
//  2. Generalize — the message-guided generalization pass: every live
//     hypothesis is extended by every admissible candidate
//     assumption, with heuristic least-upper-bound merging when a
//     bound is configured.
//  3. Postprocess — end-of-period relaxation of violated
//     unconditional entries, assumption clearing, unification and
//     most-specific pruning, and the history update.
//
// ProcessPeriod composes the three in order and emits the period
// envelope events. Front-ends (internal/learner's Learn and Online)
// are thin wrappers that own result assembly and verification.
//
// # Parallelism and determinism
//
// An Engine is single-owner: one goroutine runs every stage, and the
// engine owns and reuses all of its working memory (one
// hypothesis.Arena, the work list, the dedup set, the output
// buffers). Matrix buffers are shared copy-on-write under a plain
// refcount; nothing sharing one leaves the engine (snapshots and
// results are deep copies or end the session). Parallelism lives
// across streams and runs, where it pays: a server gives each stream
// its own engine on its own goroutine. An intra-period worker pool
// measured slower than this loop on two real cores and was removed.
//
// Children are generated in (parent, candidate-pair) order and work
// list ties break first in, first out, so a run is a pure function
// of its trace and configuration: two runs, or a run restored from a
// snapshot, give bit-identical tables and event streams.
//
// # Fingerprints
//
// All deduplication sites key on the 64-bit Zobrist fingerprints
// maintained incrementally by depfunc and hypothesis instead of the
// O(t²) canonical key strings. Unequal fingerprints prove unequal
// states; a fingerprint hit is confirmed with a full equality check
// before unifying, so a (cosmically unlikely) collision costs one
// comparison, never a wrong merge.
package engine

import (
	"errors"
	"fmt"
	"time"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// ErrNoHypothesis is returned when the hypothesis set becomes empty:
// either the trace violates the assumed model of computation, or the
// generalization language cannot express the observed behaviour
// (Section 3.1). The message keeps the historical "learner:" prefix:
// the error predates the engine split and is part of the public
// surface re-exported by internal/learner and the modelgen facade.
var ErrNoHypothesis = errors.New("learner: hypothesis set became empty")

// ErrTooManyHypotheses is returned by the exact algorithm when the
// working set exceeds Config.MaxHypotheses.
var ErrTooManyHypotheses = errors.New("learner: hypothesis set exceeded the configured maximum")

// Config configures an Engine. It is the engine-facing subset of the
// learner's Options; the front-ends translate.
type Config struct {
	// Bound is the heuristic's maximum working-set size b. Zero (or
	// negative) selects the exact algorithm.
	Bound int

	// Policy controls timing-based candidate-pair computation.
	Policy depfunc.CandidatePolicy

	// EagerPrune keeps only the minimal children one parent spawns
	// for one message (strict reading of generalization condition 4).
	EagerPrune bool

	// MaxHypotheses aborts the exact algorithm with
	// ErrTooManyHypotheses when the working set grows beyond this
	// size. Zero means unlimited.
	MaxHypotheses int

	// PeriodLiveCap bounds the Stats.PeriodLive series to the most
	// recent N periods (older entries are discarded). Zero keeps the
	// full series — right for batch runs; long-running online
	// sessions (internal/serve) set a cap so session memory stays
	// bounded.
	PeriodLiveCap int

	// Observer receives the structured run-trace; nil disables
	// emission at zero cost.
	Observer obs.Observer

	// Provenance enables per-hypothesis derivation recording.
	Provenance bool

	// OnPeriodVerify, when non-nil, receives one VerifyOutcome after
	// every successfully processed period: whether the period matched
	// the model as it stood when the period arrived, plus the
	// post-period frontier LUB — the online analogue of re-running
	// Definition 3 against each new instance. Drift monitors
	// (internal/drift) hook here. Nil disables the extra Match and
	// JoinAll work entirely.
	OnPeriodVerify func(VerifyOutcome)
}

// VerifyOutcome is the per-period verification report delivered to
// Config.OnPeriodVerify.
type VerifyOutcome struct {
	// Period is the period just consumed (engine-owned; hooks must
	// treat it as read-only and not retain it past the call).
	Period *trace.Period
	// Verified reports whether the period matched the pre-period LUB
	// of the working set under the matching function M. The first
	// periods of a session virtually always fail this check (the
	// model is still ⊥-ish); sustained failures after convergence are
	// the drift signal.
	Verified bool
	// LUB is the post-period least upper bound of the working set — a
	// fresh DepFunc the hook may keep.
	LUB *depfunc.DepFunc
	// Live is the post-period working-set size.
	Live int
}

// Stats instruments a run. The engine maintains the per-period
// counters; the front-ends fill in the result-assembly fields
// (Final, DroppedUnsound, NegativeRejections, Elapsed).
type Stats struct {
	Periods        int // periods processed
	Messages       int // message occurrences processed
	Candidates     int // timing-feasible candidate pairs summed over messages
	Children       int // hypotheses created by generalization
	Merges         int // heuristic least-upper-bound merges
	Relaxations    int // entries relaxed by end-of-period tests
	Peak           int // peak working-set size
	Final          int // hypotheses in the returned set
	DroppedUnsound int // results dropped by verification
	// NegativeRejections counts final hypotheses discarded because
	// they matched a forbidden behaviour.
	NegativeRejections int
	// PeriodLive records the live hypothesis count at the end of each
	// processed period, in order (the per-period series behind Peak).
	// With Config.PeriodLiveCap set, only the most recent N entries
	// are kept.
	PeriodLive []int
	// Elapsed is the wall time of the batch Learn call (zero for
	// Online.Result snapshots, which have no defined start).
	Elapsed time.Duration
}

// Engine is the period-processing core: the working hypothesis set
// D_cur, the cumulative execution-violation history and the run
// statistics. It is not safe for concurrent use by multiple
// goroutines; see the package comment.
type Engine struct {
	ts    *depfunc.TaskSet
	cfg   Config
	hist  []bool
	cur   []*hypothesis.Hypothesis
	stats Stats
	// base is the incremental-checkpoint capture baseline (delta.go).
	base deltaBase

	arena hypothesis.Arena
	// seen serves every message's gather, forgetDeadAssumptions and
	// pruning; each use resets it, so between uses it pins nothing.
	seen hypothesis.Dedup
	wl   workList
	// Each message writes gen[flip], then flips it, so it never
	// writes the buffer its parents are read from. kept is
	// postprocess's output, e.cur between periods. scratch holds one
	// parent's children; live backs the live-suffix sets.
	gen     [2][]*hypothesis.Hypothesis
	flip    int
	kept    []*hypothesis.Hypothesis
	scratch []*hypothesis.Hypothesis
	live    []uint64
}

// New starts an engine session over the task set: the working set is
// {d⊥}. It announces the session to the observer with an EngineStart
// event carrying the bound.
func New(ts *depfunc.TaskSet, cfg Config) *Engine {
	bottom := hypothesis.Bottom(ts)
	if cfg.Provenance {
		bottom.EnableProvenance()
	}
	return start(ts, cfg, make([]bool, ts.Len()*ts.Len()), []*hypothesis.Hypothesis{bottom}, Stats{Peak: 1})
}

// start assembles a session around an initial state and announces it.
func start(ts *depfunc.TaskSet, cfg Config, hist []bool, cur []*hypothesis.Hypothesis, stats Stats) *Engine {
	e := &Engine{ts: ts, cfg: cfg, hist: hist, cur: cur, stats: stats}
	e.wl = workList{bound: cfg.Bound, stats: &e.stats, obsv: cfg.Observer, nodes: make([]wnode, 1)}
	e.resetDeltaBase()
	if cfg.Observer != nil {
		cfg.Observer.OnEngineStart(obs.EngineStart{Bound: cfg.Bound})
	}
	return e
}

// TaskSet returns the session's task set.
func (e *Engine) TaskSet() *depfunc.TaskSet { return e.ts }

// Stats returns a snapshot of the instrumentation counters.
func (e *Engine) Stats() Stats { return e.stats }

// Working returns the live hypothesis set (not a copy; callers must
// not mutate it, and must not hold it across the next ProcessPeriod,
// which reuses the slice and recycles superseded hypotheses).
func (e *Engine) Working() []*hypothesis.Hypothesis { return e.cur }

// WorkingSetSize returns the current number of live hypotheses.
func (e *Engine) WorkingSetSize() int { return len(e.cur) }

// ProcessPeriod consumes one instance: the candidate, generalize and
// postprocess stages in order, wrapped in the period envelope events.
// On error the engine's working set is no longer a consistent prefix
// of the instance stream; the caller owns making the session sticky.
func (e *Engine) ProcessPeriod(p *trace.Period) error {
	obsv := e.cfg.Observer
	if obsv != nil {
		obsv.OnPeriodStart(obs.PeriodStart{Period: p.Index, Messages: len(p.Msgs)})
	}
	var pre *depfunc.DepFunc
	if e.cfg.OnPeriodVerify != nil {
		pre = e.lub()
	}
	executed := execVector(p, e.ts)
	cands, live := e.EnumerateCandidates(p)
	if err := e.Generalize(p, cands, live); err != nil {
		return err
	}
	relaxed, dropped := e.Postprocess(p, executed)
	e.stats.Periods++
	e.stats.PeriodLive = e.appendPeriodLive(e.stats.PeriodLive, len(e.cur))
	if obsv != nil {
		// Postprocess leaves the survivors sorted by ascending
		// weight, so the weight range is at the ends.
		obsv.OnPeriodEnd(obs.PeriodEnd{
			Period:      p.Index,
			Live:        len(e.cur),
			Dropped:     dropped,
			WeightMin:   e.cur[0].Weight(),
			WeightMax:   e.cur[len(e.cur)-1].Weight(),
			Relaxations: relaxed,
		})
	}
	if hook := e.cfg.OnPeriodVerify; hook != nil {
		sp := obs.StartSpan(obsv, obs.PhaseDriftVerify)
		out := VerifyOutcome{
			Period:   p,
			Verified: depfunc.Match(pre, p, e.cfg.Policy),
			LUB:      e.lub(),
			Live:     len(e.cur),
		}
		sp.End()
		hook(out)
	}
	return nil
}

// appendPeriodLive appends one period's live count to the series pl,
// keeping at most Config.PeriodLiveCap entries.
func (e *Engine) appendPeriodLive(pl []int, live int) []int {
	if cap := e.cfg.PeriodLiveCap; cap > 0 && len(pl) >= cap {
		copy(pl, pl[len(pl)-cap+1:])
		pl = pl[:cap-1]
	}
	return append(pl, live)
}

// lub returns the pointwise least upper bound of the working set as a
// fresh dependency function.
func (e *Engine) lub() *depfunc.DepFunc {
	ds := make([]*depfunc.DepFunc, len(e.cur))
	for i, h := range e.cur {
		ds[i] = &h.D
	}
	return depfunc.JoinAll(ds)
}

// EnumerateCandidates computes the timing-feasible candidate pairs of
// every message of the period and the live-suffix sets behind early
// assumption forgetting, under the "candidates" span. The Live sets
// are backed by engine memory and valid until the next call.
func (e *Engine) EnumerateCandidates(p *trace.Period) ([][]depfunc.Pair, Live) {
	sp := obs.StartSpan(e.cfg.Observer, obs.PhaseCandidates)
	cands := depfunc.Candidates(p, e.ts, e.cfg.Policy)
	live := e.liveSuffixes(cands)
	sp.End()
	return cands, live
}

// Generalize runs the message-guided generalization pass over the
// period, under the "generalize" span. cands and live must come from
// EnumerateCandidates on the same period.
func (e *Engine) Generalize(p *trace.Period, cands [][]depfunc.Pair, live Live) error {
	obsv := e.cfg.Observer
	sp := obs.StartSpan(obsv, obs.PhaseGeneralize)
	cur := e.cur
	for mi := range p.Msgs {
		next, err := e.generalizeMessage(cur, e.gen[e.flip][:0], cands[mi], p.Index, mi, p.Msgs[mi].ID)
		if err != nil {
			sp.End()
			return fmt.Errorf("%w (period %d, message %q)", err, p.Index, p.Msgs[mi].ID)
		}
		if mi > 0 {
			// cur is an intermediate generation created within this
			// period and superseded by next: nothing else references
			// it (children share parent buffers only through the
			// refcount), so it goes back to the arenas.
			e.release(cur)
		}
		cur = e.forgetDeadAssumptions(next, live, mi+1)
		e.gen[e.flip] = cur
		e.flip ^= 1
		e.stats.Messages++
		e.stats.Candidates += len(cands[mi])
		if len(cur) > e.stats.Peak {
			e.stats.Peak = len(cur)
		}
		if obsv != nil {
			obsv.OnMessageProcessed(obs.MessageProcessed{
				Period: p.Index, Index: mi, ID: p.Msgs[mi].ID,
				Candidates: len(cands[mi]), Live: len(cur),
			})
		}
	}
	sp.End()
	if len(p.Msgs) > 0 {
		// The period-entry set is superseded too. It is released only
		// now, so a failed period leaves e.cur intact.
		e.release(e.cur)
	}
	e.cur = cur
	return nil
}

// release recycles hypotheses nothing references any more and clears
// their slots.
func (e *Engine) release(hs []*hypothesis.Hypothesis) {
	for _, h := range hs {
		h.Release(&e.arena)
	}
	clear(hs)
}

// Postprocess runs the end-of-period pass under the "postprocess"
// span: relax violated unconditional entries, clear assumptions,
// unify and prune to the most specific set, update the cumulative
// history. It returns the relaxed-entry count and the number of
// hypotheses dropped by pruning.
func (e *Engine) Postprocess(p *trace.Period, executed []bool) (relaxed, dropped int) {
	sp := obs.StartSpan(e.cfg.Observer, obs.PhasePostprocess)
	endCtx := hypothesis.StepCtx{Period: p.Index, Msg: -1}
	for _, h := range e.cur {
		relaxed += h.Relax(func(i int) bool { return executed[i] }, endCtx)
		h.ClearAssumptions()
	}
	e.stats.Relaxations += relaxed
	// Every surviving assumption list was just cleared and no other
	// holder outlives the period, so the cons cells can recycle
	// wholesale.
	e.arena.Reset()
	before := len(e.cur)
	e.cur = e.pruneMostSpecific(e.cur, p.Index)
	updateHistory(e.hist, executed, e.ts.Len())
	sp.End()
	return relaxed, before - len(e.cur)
}

// generalizeMessage extends every hypothesis in cur by every
// admissible candidate assumption for one message, in (parent, pair)
// order, applying heuristic merging when a bound is set. The result
// is appended to out, which must not share cur's backing array.
func (e *Engine) generalizeMessage(cur, out []*hypothesis.Hypothesis, pairs []depfunc.Pair,
	period, msg int, msgID string) ([]*hypothesis.Hypothesis, error) {

	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: message has no timing-feasible sender/receiver pair", ErrNoHypothesis)
	}
	ctx := hypothesis.StepCtx{Period: period, Msg: msg, MsgID: msgID, Arena: &e.arena}
	wl := &e.wl
	wl.ctx, wl.out = ctx, out
	for _, h := range cur {
		e.scratch = e.childrenOf(h, pairs, ctx, e.scratch[:0])
		for _, c := range e.scratch {
			if e.seen.Insert(c) {
				// An equal hypothesis is already in the working list;
				// the rejected duplicate was never seen by anyone else,
				// so it goes straight back to the arenas.
				c.Release(&e.arena)
				continue
			}
			e.stats.Children++
			if e.cfg.Observer != nil {
				e.cfg.Observer.OnHypothesisSpawned(obs.HypothesisSpawned{
					Period: period, Index: msg, Weight: c.Weight(),
				})
			}
			wl.add(c)
		}
	}
	clear(e.scratch)
	out = wl.finish()
	// The dedup set is dead from here on: hypotheses the bounded
	// heuristic merged away can no longer be consulted by any equality
	// check, so they are safe to recycle.
	e.seen.Reset()
	wl.releaseRetired()
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no hypothesis can explain the message", ErrNoHypothesis)
	}
	if e.cfg.Bound <= 0 && e.cfg.MaxHypotheses > 0 && len(out) > e.cfg.MaxHypotheses {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyHypotheses, len(out), e.cfg.MaxHypotheses)
	}
	return out, nil
}

// childrenOf appends the admissible children of one parent for one
// message to dst; eager pruning is confined to the new segment.
func (e *Engine) childrenOf(h *hypothesis.Hypothesis, pairs []depfunc.Pair,
	ctx hypothesis.StepCtx, dst []*hypothesis.Hypothesis) []*hypothesis.Hypothesis {

	n := e.ts.Len()
	base := len(dst)
	for _, pr := range pairs {
		fwd := lattice.Fwd
		if e.hist[pr.S*n+pr.R] {
			fwd = lattice.FwdMaybe
		}
		bwd := lattice.Bwd
		if e.hist[pr.R*n+pr.S] {
			bwd = lattice.BwdMaybe
		}
		if c := h.Assume(pr, fwd, bwd, ctx); c != nil {
			dst = append(dst, c)
		}
	}
	if e.cfg.EagerPrune {
		kept := minimalChildren(dst[base:], ctx.Arena)
		dst = dst[:base+len(kept)]
	}
	return dst
}

// Live holds a period's live-suffix sets: for each message index i,
// the pairs appearing in the candidate sets of messages i..end, as a
// bitset over the pair slots S·n+R (set len(cands) is empty). After
// message i is analyzed, assumptions about pairs outside set i+1 can
// never be consulted again this period.
type Live struct {
	n, words int
	bits     []uint64
}

// Has reports whether p is in live-suffix set i.
func (l Live) Has(i int, p depfunc.Pair) bool {
	k := p.S*l.n + p.R
	return l.bits[i*l.words+k/64]&(1<<(k%64)) != 0
}

// liveSuffixes builds the period's Live sets in the engine's reusable
// buffer.
func (e *Engine) liveSuffixes(cands [][]depfunc.Pair) Live {
	n := e.ts.Len()
	l := Live{n: n, words: (n*n + 63) / 64}
	size := (len(cands) + 1) * l.words
	if cap(e.live) < size {
		e.live = make([]uint64, size)
	}
	l.bits = e.live[:size]
	clear(l.bits[len(cands)*l.words:])
	for i := len(cands) - 1; i >= 0; i-- {
		set := l.bits[i*l.words : (i+1)*l.words]
		copy(set, l.bits[(i+1)*l.words:])
		for _, p := range cands[i] {
			k := p.S*n + p.R
			set[k/64] |= 1 << (k % 64)
		}
	}
	return l
}

// forgetDeadAssumptions drops assumptions about pairs that no message
// from index from on can use, then unifies hypotheses that became
// identical — a pure optimization that preserves the algorithm's
// results (dead assumptions cannot influence any future dup-pair
// check, and assumption sets are discarded at the period boundary
// anyway).
func (e *Engine) forgetDeadAssumptions(hs []*hypothesis.Hypothesis, live Live, from int) []*hypothesis.Hypothesis {
	out := hs[:0]
	for _, h := range hs {
		h.RetainAssumptions(func(p depfunc.Pair) bool { return live.Has(from, p) }, &e.arena)
		if !e.seen.Insert(h) {
			out = append(out, h)
		} else {
			// Unified away, referenced by nothing else: recycle.
			h.Release(&e.arena)
		}
	}
	e.seen.Reset()
	clear(hs[len(out):])
	return out
}

// minimalChildren keeps only the minimal elements (by the pointwise
// order on dependency functions) among the children one parent
// spawned for one message. Children with equal dependency functions
// but different assumptions are all kept. Dominated children are
// fresh, unshared objects, so they are recycled on the spot.
func minimalChildren(children []*hypothesis.Hypothesis, ar *hypothesis.Arena) []*hypothesis.Hypothesis {
	dominated := make([]bool, len(children))
	for i, c := range children {
		for j, o := range children {
			if i != j && o.D.Lt(&c.D) {
				dominated[i] = true
				break
			}
		}
	}
	out := children[:0]
	for i, c := range children {
		if !dominated[i] {
			out = append(out, c)
		} else {
			c.Release(ar)
		}
	}
	return out
}

// pruneMostSpecific unifies equal hypotheses and removes redundant
// ones: h is redundant iff some other hypothesis is strictly more
// specific (Section 3.1 post-processing). Removals are reported to
// the observer (reason "duplicate" or "redundant") and recycled. The
// survivors go to the engine's kept buffer, sorted by ascending
// weight; hs is consumed. Assumption sets are already cleared at this
// point, so deduplication compares dependency functions alone.
func (e *Engine) pruneMostSpecific(hs []*hypothesis.Hypothesis, period int) []*hypothesis.Hypothesis {
	obsv := e.cfg.Observer
	uniq := hs[:0]
	for _, h := range hs {
		if !e.seen.Insert(h) {
			uniq = append(uniq, h)
			continue
		}
		if obsv != nil {
			obsv.OnHypothesisPruned(obs.HypothesisPruned{
				Period: period, Reason: "duplicate", Weight: h.Weight(),
			})
		}
		h.Release(&e.arena)
	}
	e.seen.Reset()
	clear(hs[len(uniq):])
	// Sort by weight: a hypothesis can only be dominated by a
	// strictly lighter one.
	sortByWeight(uniq)
	// A hypothesis dominated by a redundant one is dominated by the
	// survivor below it too, so comparing against the survivors is
	// enough. out may share uniq's array (a period without messages
	// hands kept back in); it never overtakes the element being read.
	out := e.kept[:0]
	for _, h := range uniq {
		redundant := false
		for _, o := range out {
			if o.Weight() >= h.Weight() {
				break
			}
			if o.D.Lt(&h.D) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, h)
			continue
		}
		if obsv != nil {
			obsv.OnHypothesisPruned(obs.HypothesisPruned{
				Period: period, Reason: "redundant", Weight: h.Weight(),
			})
		}
		h.Release(&e.arena)
	}
	clear(uniq[len(out):])
	e.kept = out
	return out
}

func execVector(p *trace.Period, ts *depfunc.TaskSet) []bool {
	v := make([]bool, ts.Len())
	for name := range p.Execs {
		if i := ts.Index(name); i >= 0 {
			v[i] = true
		}
	}
	return v
}

func updateHistory(hist []bool, executed []bool, n int) {
	for a := 0; a < n; a++ {
		if !executed[a] {
			continue
		}
		for b := 0; b < n; b++ {
			if a != b && !executed[b] {
				hist[a*n+b] = true
			}
		}
	}
}
