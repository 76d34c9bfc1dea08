package hypothesis

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// fuzzTasks is the task set of the arena tests: 5 tasks, 20 ordered
// pairs, so random assumption lists overlap often.
var fuzzTasks = depfunc.MustTaskSet("a", "b", "c", "d", "e")

// grow assumes the pairs the bytes select, three bytes a step (sender,
// receiver, stamp choice), skipping self pairs and repeats.
func grow(h *Hypothesis, ops []byte, ctx StepCtx) *Hypothesis {
	n := fuzzTasks.Len()
	for ; len(ops) >= 3; ops = ops[3:] {
		p := depfunc.Pair{S: int(ops[0]) % n, R: int(ops[1]) % n}
		fwd, bwd := lattice.Fwd, lattice.Bwd
		if ops[2]&1 != 0 {
			fwd = lattice.FwdMaybe
		}
		if ops[2]&2 != 0 {
			bwd = lattice.BwdMaybe
		}
		if p.S == p.R {
			continue
		}
		if c := h.Assume(p, fwd, bwd, ctx); c != nil {
			h = c
		}
	}
	return h
}

// nestedIntersect is the reference O(|a|·|b|) assumption intersection
// the Arena's stamp table replaced: h's pairs that other also assumed,
// in h's list order.
func nestedIntersect(h, other *Hypothesis) []depfunc.Pair {
	var out []depfunc.Pair
	for c := h.asm; c != nil; c = c.prev {
		if other.Assumed(c.p) {
			out = append(out, c.p)
		}
	}
	return out
}

// FuzzMerge drives the bounded heuristic's merge through random
// hypothesis pairs, merged results included. Each Merge must keep the
// cached weight equal to a full Weight recount of the joined matrix
// (Merge adds the join's delta instead of recounting), join the
// matrices exactly, and give the assumption list of the nested-loop
// intersection (cell for cell, in the same order) with a matching
// fingerprint — with an Arena and with the nil Arena alike.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 1, 2, 2}, []byte{0, 1, 3, 3, 4, 0, 2, 3, 1})
	f.Add([]byte{4, 0, 3, 0, 4, 3, 1, 0, 0, 2, 1, 1}, []byte{1, 0, 0, 4, 0, 3})
	f.Add([]byte{}, []byte{3, 2, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ar Arena
		ctx := StepCtx{Arena: &ar}
		h1 := grow(Bottom(fuzzTasks), a, ctx)
		h2 := grow(Bottom(fuzzTasks), b, ctx)
		check := func(what string, x, y *Hypothesis) *Hypothesis {
			t.Helper()
			want := nestedIntersect(x, y)
			var wantFP uint64
			for _, p := range want {
				wantFP ^= p.Fingerprint()
			}
			var m *Hypothesis
			for _, mctx := range []StepCtx{ctx, {}} {
				m = x.Merge(y, mctx)
				if m.Weight() != m.D.Weight() {
					t.Fatalf("%s: cached weight %d, recount %d", what, m.Weight(), m.D.Weight())
				}
				if !m.D.Equal(x.D.Join(&y.D)) {
					t.Fatalf("%s: merged matrix is not the join", what)
				}
				got := nestedIntersect(m, m)
				if m.acount != len(want) || m.afp != wantFP || len(got) != len(want) {
					t.Fatalf("%s: intersection %v (count %d), nested loop %v", what, got, m.acount, want)
				}
				for i, p := range got {
					if p != want[len(want)-1-i] {
						t.Fatalf("%s: intersection %v, nested loop (reversed) %v", what, got, want)
					}
				}
			}
			return m
		}
		m := check("a⊔b", h1, h2)
		check("b⊔a", h2, h1)
		// Grow the merged hypothesis further and merge it again, so
		// operands that are themselves merges are covered.
		check("(a⊔b)+a ⊔ b", grow(m, b, ctx), h2)
		check("a ⊔ a", h1, h1)
	})
}

// TestDedupResetLeavesNoPointer: Reset clears every slot the set
// filled, including the ones a growth moved, so a reused Dedup pins no
// hypothesis between uses; and the reset set behaves as empty.
func TestDedupResetLeavesNoPointer(t *testing.T) {
	var ar Arena
	ctx := StepCtx{Arena: &ar}
	var hs []*Hypothesis
	for s := 0; s < 5; s++ {
		for r := 0; r < 5; r++ {
			if s == r {
				continue
			}
			h := Bottom(fuzzTasks).Assume(depfunc.Pair{S: s, R: r}, lattice.Fwd, lattice.Bwd, ctx)
			hs = append(hs, h, h.Assume(depfunc.Pair{S: r, R: s}, lattice.FwdMaybe, lattice.Bwd, ctx))
		}
	}
	var d Dedup
	for round := 0; round < 3; round++ {
		for _, h := range hs {
			if d.Insert(h) {
				t.Fatalf("round %d: a fresh hypothesis was reported present", round)
			}
		}
		for _, h := range hs {
			if !d.Insert(h) {
				t.Fatalf("round %d: an inserted hypothesis was reported absent", round)
			}
		}
		if len(d.slots) < 2*len(hs) {
			t.Fatalf("round %d: %d slots for %d members, want load at most 1/2", round, len(d.slots), len(hs))
		}
		d.Reset()
		for i, s := range d.slots {
			if s != (dedupSlot{}) {
				t.Fatalf("round %d: slot %d still holds %+v after Reset", round, i, s)
			}
		}
		if len(d.used) != 0 {
			t.Fatalf("round %d: %d used entries after Reset", round, len(d.used))
		}
	}
}
