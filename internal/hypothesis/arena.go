package hypothesis

import "github.com/blackbox-rt/modelgen/internal/depfunc"

// Arena is the generalization loop's allocator, owned by one engine
// session and used from its goroutine only. The nil Arena is valid
// everywhere and falls back to the heap. It holds:
//
//   - assumption cons cells, bump-allocated in blocks and recycled
//     wholesale by Reset at the period boundary (ClearAssumptions
//     runs on every survivor first, so no list outlives its period);
//   - a freelist of Hypothesis headers: Assume and Merge take from it
//     and Release returns to it, so the fan-out's parents × pairs
//     children per message cost no heap allocation;
//   - a pair-stamp table that makes Merge's assumption intersection
//     O(|a|+|b|) instead of O(|a|·|b|).
type Arena struct {
	blocks   [][]assumeNode
	bi, used int
	free     []*Hypothesis
	stamps   []uint32 // per pair slot S·n+R: the stamp of its last marking
	stamp    uint32
}

const (
	// Cell blocks start small, since most sessions are small, and
	// double arenaGrowths times, up to 1024 cells.
	arenaMinBlock = 32
	arenaGrowths  = 5
	// freeCap bounds the retained headers, so one period that spikes
	// (an exact run near its MaxHypotheses) cannot pin them forever.
	freeCap = 1 << 14
)

// node returns a cell initialized to {p, prev}.
func (a *Arena) node(p depfunc.Pair, prev *assumeNode) *assumeNode {
	if a == nil {
		return &assumeNode{p: p, prev: prev}
	}
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]assumeNode, arenaMinBlock<<min(a.bi, arenaGrowths)))
	}
	n := &a.blocks[a.bi][a.used]
	n.p, n.prev = p, prev
	if a.used++; a.used == len(a.blocks[a.bi]) {
		a.bi, a.used = a.bi+1, 0
	}
	return n
}

// header returns a zeroed Hypothesis header.
func (a *Arena) header() *Hypothesis {
	if a == nil || len(a.free) == 0 {
		return new(Hypothesis)
	}
	h := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return h
}

// intersect returns the cells of h's assumption list whose pair other
// also assumed, rebuilt in reverse order, with their count and
// fingerprint: one stamp write per cell of other, one stamp read per
// cell of h.
func (a *Arena) intersect(h, other *Hypothesis) (asm *assumeNode, count int, afp uint64) {
	if h.asm == nil || other.asm == nil {
		return nil, 0, 0
	}
	if a == nil {
		a = new(Arena)
	}
	n := h.D.N()
	if len(a.stamps) < n*n {
		a.stamps, a.stamp = make([]uint32, n*n), 0
	}
	if a.stamp++; a.stamp == 0 {
		clear(a.stamps)
		a.stamp = 1
	}
	for c := other.asm; c != nil; c = c.prev {
		a.stamps[c.p.S*n+c.p.R] = a.stamp
	}
	for c := h.asm; c != nil; c = c.prev {
		if a.stamps[c.p.S*n+c.p.R] == a.stamp {
			asm = a.node(c.p, asm)
			count++
			afp ^= c.p.Fingerprint()
		}
	}
	return asm, count, afp
}

// Reset recycles every assumption cell; headers and stamps are kept.
// Only call it when no live hypothesis can still reference a cell —
// in the engine, right after the period-end ClearAssumptions sweep.
func (a *Arena) Reset() {
	if a != nil {
		a.bi, a.used = 0, 0
	}
}

// Dedup is a fingerprint-keyed hypothesis set with full-equality
// confirmation on a fingerprint hit: an open-addressed, linearly
// probed table of (fingerprint, hypothesis) slots, at most half full.
// Reset clears exactly the slots the last use filled, in O(used), and
// leaves no pointer behind, so a Dedup reused message after message
// pins no dead hypothesis between uses. The zero value is empty.
type Dedup struct {
	slots []dedupSlot // power-of-two length
	used  []int32     // occupied slot indices
}

type dedupSlot struct {
	fp uint64
	h  *Hypothesis
}

// Insert reports whether a hypothesis with the same state (dependency
// function plus assumption set) was already present, inserting h
// otherwise.
func (d *Dedup) Insert(h *Hypothesis) bool {
	if 2*(len(d.used)+1) > len(d.slots) {
		d.grow()
	}
	fp := h.Fingerprint()
	for i, mask := int(fp), len(d.slots)-1; ; i++ {
		s := &d.slots[i&mask]
		if s.h == nil {
			*s = dedupSlot{fp, h}
			d.used = append(d.used, int32(i&mask))
			return false
		}
		if s.fp == fp && s.h.SameState(h) {
			return true
		}
	}
}

// grow doubles the table (16 slots at first) and re-inserts the
// members. Fingerprints are mixed hashes, so their low bits index it.
func (d *Dedup) grow() {
	old := d.slots
	d.slots = make([]dedupSlot, max(2*len(old), 16))
	mask := len(d.slots) - 1
	for j, oi := range d.used {
		i := int(old[oi].fp)
		for d.slots[i&mask].h != nil {
			i++
		}
		d.slots[i&mask] = old[oi]
		d.used[j] = int32(i & mask)
	}
}

// Reset empties the set, clearing exactly the slots in use.
func (d *Dedup) Reset() {
	for _, i := range d.used {
		d.slots[i] = dedupSlot{}
	}
	d.used = d.used[:0]
}
