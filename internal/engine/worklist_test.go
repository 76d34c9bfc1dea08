package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// refWorkList is the reference bounded work list: a slice kept sorted
// by ascending weight, each insertion placed after every equal weight,
// and every overflow merging the two front elements.
type refWorkList struct {
	bound int
	items []*hypothesis.Hypothesis
	ctx   hypothesis.StepCtx
	name  map[*hypothesis.Hypothesis]string
	merge []string // "a+b" per merge, in order
}

func (r *refWorkList) insert(h *hypothesis.Hypothesis) {
	i := sort.Search(len(r.items), func(k int) bool { return r.items[k].Weight() > h.Weight() })
	r.items = append(r.items, nil)
	copy(r.items[i+1:], r.items[i:])
	r.items[i] = h
}

func (r *refWorkList) add(h *hypothesis.Hypothesis) {
	r.insert(h)
	for len(r.items) > r.bound {
		a, b := r.items[0], r.items[1]
		r.items = r.items[2:]
		m := a.Merge(b, r.ctx)
		r.name[m] = "(" + r.name[a] + "+" + r.name[b] + ")"
		r.merge = append(r.merge, r.name[a]+"+"+r.name[b])
		r.insert(m)
	}
}

// randomHypotheses builds n hypotheses over a 4-task set by one to
// three random assumptions each. Their weights take few distinct
// values (every join adds 1, 4 or 9 per entry), so ties abound.
func randomHypotheses(rng *rand.Rand, n int, ctx hypothesis.StepCtx) []*hypothesis.Hypothesis {
	ts := depfunc.MustTaskSet("a", "b", "c", "d")
	stamps := []lattice.Value{lattice.Fwd, lattice.FwdMaybe}
	back := []lattice.Value{lattice.Bwd, lattice.BwdMaybe}
	out := make([]*hypothesis.Hypothesis, 0, n)
	for len(out) < n {
		h := hypothesis.Bottom(ts)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			s, r := rng.Intn(4), rng.Intn(4)
			if s == r {
				continue
			}
			if c := h.Assume(depfunc.Pair{S: s, R: r}, stamps[rng.Intn(2)], back[rng.Intn(2)], ctx); c != nil {
				h = c
			}
		}
		out = append(out, h)
	}
	return out
}

// TestWorkListMatchesSortedSlice: the bucket-queue work list performs
// the same merges, on the same operand pairs in the same order, and
// drains in the same order as the reference sorted slice, over random
// inputs with many weight ties and several bounds. It also reuses one
// work list across messages, as the engine does.
func TestWorkListMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ar hypothesis.Arena
	ctx := hypothesis.StepCtx{Arena: &ar}
	var st Stats
	wl := workList{stats: &st, nodes: make([]wnode, 1)}
	for iter := 0; iter < 200; iter++ {
		bound := 1 + rng.Intn(12)
		in := randomHypotheses(rng, rng.Intn(80), ctx)
		ref := refWorkList{bound: bound, ctx: ctx, name: map[*hypothesis.Hypothesis]string{}}
		name := map[*hypothesis.Hypothesis]string{}
		for i, h := range in {
			ref.name[h] = fmt.Sprint(i)
			name[h] = fmt.Sprint(i)
		}

		wl.bound = bound
		wl.ctx = ctx
		var merges []string
		for _, h := range in {
			ref.add(h)
			wl.add(h)
			// A merge retires its two operands and queues the one
			// element no name is known for yet: the merged result.
			for k := 2 * len(merges); k < len(wl.retired); k += 2 {
				a, b := name[wl.retired[k]], name[wl.retired[k+1]]
				merges = append(merges, a+"+"+b)
				for w := range wl.buckets {
					for i := wl.buckets[w].head; i != 0; i = wl.nodes[i].next {
						if h := wl.nodes[i].h; name[h] == "" {
							name[h] = "(" + a + "+" + b + ")"
						}
					}
				}
			}
		}
		if fmt.Sprint(merges) != fmt.Sprint(ref.merge) {
			t.Fatalf("iter %d bound %d: merge operands\n got %v\nwant %v", iter, bound, merges, ref.merge)
		}
		got := wl.finish()
		if len(got) != len(ref.items) {
			t.Fatalf("iter %d bound %d: drained %d, want %d", iter, bound, len(got), len(ref.items))
		}
		for i, h := range got {
			if name[h] != ref.name[ref.items[i]] {
				t.Fatalf("iter %d bound %d: drain position %d is %s, want %s", iter, bound, i, name[h], ref.name[ref.items[i]])
			}
		}
		if st.Merges != len(ref.merge) {
			t.Fatalf("iter %d: merge counter %d, want %d", iter, st.Merges, len(ref.merge))
		}
		st.Merges = 0
		wl.retired = wl.retired[:0]
		ar.Reset()
	}
}
