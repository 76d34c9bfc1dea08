package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (never inside the program). Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRecorder keeps spans in memory; write flushes them at the end
// of a run. A nil recorder records nothing, so the untraced paths
// share code with the traced ones at the cost of a nil check. It is
// safe for concurrent use by the load's client goroutines.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	start := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(r.spans)
}

// end closes the span opened by begin.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records a span whose duration was measured elsewhere, ending
// now (the engine reports its phases as elapsed times).
func (r *spanRecorder) add(name string, parent int, elapsed time.Duration) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: end - int64(elapsed), End: end})
	r.mu.Unlock()
}

// selfTime is a span's duration minus the part of its interval its
// children cover. Overlapping children count once; children reaching
// outside the parent are clipped to it.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanSummary is the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// summarize rolls spans up by name, with self time per the rule of
// selfTime.
func (r *spanRecorder) summarize() []spanSummary {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*spanSummary{}
	var names []string
	for _, s := range r.spans {
		sum, ok := by[s.Name]
		if !ok {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalNS += s.dur()
		sum.SelfNS += selfTime(s, kids[s.ID])
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// write stores the spans as JSON lines, followed by the per-name
// summary in a sibling file.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum, err := json.MarshalIndent(r.summarize(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".summary.json", sum, 0o644); err != nil {
		return fmt.Errorf("span summary: %w", err)
	}
	return nil
}
