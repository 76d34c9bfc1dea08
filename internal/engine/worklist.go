package engine

import (
	"slices"

	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/obs"
)

// workList is the engine's working collection of one message's
// children, reused message after message. With a positive bound it is
// a bucket queue, one FIFO per weight threaded through a reusable node
// array, and every addition that overflows the bound merges the two
// lightest elements into their least upper bound (Section 3.2).
// Lightest first, first in first out among equal weights, is exactly
// the order of a weight-sorted slice with stable insertion, at O(1)
// per operation (weights are small integers, at most 9 per task
// pair). In exact mode elements go straight to the output.
type workList struct {
	bound   int
	stats   *Stats
	obsv    obs.Observer
	ctx     hypothesis.StepCtx
	out     []*hypothesis.Hypothesis // drain target; the exact mode's list
	buckets []wbucket                // indexed by weight
	nodes   []wnode                  // nodes[0] is the nil sentinel
	free    int32                    // node freelist head, 0 when empty
	n       int                      // queued elements
	lo, hi  int                      // queued weights lie in [lo, hi]
	// retired holds the operands merges folded away until the
	// message's dedup set, which may reference them, is done.
	retired []*hypothesis.Hypothesis
}

// wbucket is one weight's FIFO: node indices, 0 when empty.
type wbucket struct{ head, tail int32 }

type wnode struct {
	h    *hypothesis.Hypothesis
	next int32
}

func (wl *workList) add(h *hypothesis.Hypothesis) {
	if wl.bound <= 0 {
		wl.out = append(wl.out, h)
		return
	}
	wl.push(h)
	if wl.n > wl.bound {
		a, b := wl.pop(), wl.pop()
		merged := a.Merge(b, wl.ctx)
		wl.retired = append(wl.retired, a, b)
		wl.stats.Merges++
		if wl.obsv != nil {
			wl.obsv.OnHypothesisMerged(obs.HypothesisMerged{
				Period: wl.ctx.Period, Index: wl.ctx.Msg,
				WeightA: a.Weight(), WeightB: b.Weight(), WeightMerged: merged.Weight(),
			})
		}
		wl.push(merged)
	}
}

// push appends h to the FIFO of its weight.
func (wl *workList) push(h *hypothesis.Hypothesis) {
	w := h.Weight()
	if w >= len(wl.buckets) {
		wl.buckets = append(wl.buckets, make([]wbucket, w+1-len(wl.buckets))...)
	}
	i := wl.free
	if i != 0 {
		wl.free = wl.nodes[i].next
		wl.nodes[i] = wnode{h: h}
	} else {
		i = int32(len(wl.nodes))
		wl.nodes = append(wl.nodes, wnode{h: h})
	}
	b := &wl.buckets[w]
	if b.tail == 0 {
		b.head = i
	} else {
		wl.nodes[b.tail].next = i
	}
	b.tail = i
	if wl.n == 0 {
		wl.lo, wl.hi = w, w
	} else {
		wl.lo, wl.hi = min(wl.lo, w), max(wl.hi, w)
	}
	wl.n++
}

// pop removes the oldest element of the lightest non-empty weight.
func (wl *workList) pop() *hypothesis.Hypothesis {
	for wl.buckets[wl.lo].head == 0 {
		wl.lo++
	}
	b := &wl.buckets[wl.lo]
	i := b.head
	nd := &wl.nodes[i]
	h := nd.h
	if b.head = nd.next; b.head == 0 {
		b.tail = 0
	}
	*nd = wnode{next: wl.free}
	wl.free = i
	wl.n--
	return h
}

// finish returns the message's result: the exact mode's list, or the
// queue drained lightest first (FIFO within a weight) into out. The
// list keeps no reference to any element afterwards except through
// retired.
func (wl *workList) finish() []*hypothesis.Hypothesis {
	out := wl.out
	if wl.n > 0 {
		for w := wl.lo; w <= wl.hi; w++ {
			b := &wl.buckets[w]
			for i := b.head; i != 0; i = wl.nodes[i].next {
				out = append(out, wl.nodes[i].h)
			}
			*b = wbucket{}
		}
		clear(wl.nodes)
		wl.nodes, wl.free, wl.n = wl.nodes[:1], 0, 0
	}
	wl.out = nil
	return out
}

// releaseRetired recycles every merged-away operand. Only call it
// once no dedup set that might reference them can make another
// equality check.
func (wl *workList) releaseRetired() {
	for _, h := range wl.retired {
		h.Release(wl.ctx.Arena)
	}
	clear(wl.retired)
	wl.retired = wl.retired[:0]
}

// sortByWeight stably sorts hypotheses by ascending weight.
func sortByWeight(hs []*hypothesis.Hypothesis) {
	slices.SortStableFunc(hs, func(a, b *hypothesis.Hypothesis) int { return a.Weight() - b.Weight() })
}
