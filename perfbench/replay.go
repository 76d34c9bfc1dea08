package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/can"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/store"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

const (
	// replayBodies caps how many request bodies of each replayed stream
	// go through the layers.
	replayBodies = 600
	// minReplayPeriods is how many periods the replay cuts at least
	// (cycling through self-contained period feeds where needed), so
	// that the per-layer p99s have ten samples beyond them.
	minReplayPeriods = 1000
)

// layerStats is what the layer-by-layer replay measured. Times are
// per call; counts are work the program did and repeat exactly for a
// seed.
type layerStats struct {
	parseNS, parseCalls int64 // LineReader.Line
	frameNS, frames     int64 // StreamConverter.Line
	lines, periodsCut   int64
	requests            int64 // request bodies replayed

	addPeriod, delta, result        []float64 // ns per period
	candidates, generalize, postpro []float64 // ns per period, from the engine's phase spans
	deltaBytes                      int64
	stats                           learner.Stats // summed over streams; Peak is the max
	prunedDup, prunedRed, liveSum   int64
	allocBytes                      uint64 // learning without an observer
	periods                         int64

	appends, walBytes int64
	appendNS          []float64
	compactNS         []float64
	compactions       int64

	events, eventAlloc, model []float64
	modelBytes                int64
	shed                      int64
}

// walEntry mirrors the payload the server appends per learned period
// (a stream without a drift monitor writes only the delta).
type walEntry struct {
	Delta *learner.Delta `json:"delta,omitempty"`
}

// baseEnvelope mirrors the server's base-snapshot file.
type baseEnvelope struct {
	ServeVersion int               `json:"serve_version"`
	Info         serve.StreamInfo  `json:"info"`
	Snapshot     *learner.Snapshot `json:"snapshot"`
}

// replayLayers sends the workload's own inputs through the public
// functions of each layer in turn — trace, can, learner/engine with
// store, then serve — timing every call and recording it as a span.
func replayLayers(in *inputs, work string, rec *spanRecorder) (*layerStats, error) {
	ls := &layerStats{}
	streams := in.streams
	if len(streams) > replayStreams {
		streams = streams[:replayStreams]
	}
	periods := make([][]*trace.Period, len(streams))
	bodies := make([][]string, len(streams))
	perStream := (minReplayPeriods + len(streams) - 1) / len(streams)
	for i, st := range streams {
		bodies[i] = st.requests
		switch {
		case st.cyclic: // one period per body: cycle to perStream periods
			bodies[i] = make([]string, perStream)
			for k := range bodies[i] {
				bodies[i][k] = st.requests[k%len(st.requests)]
			}
		case len(st.requests) > replayBodies:
			bodies[i] = st.requests[:replayBodies]
		}
		ps, err := replayTrace(st, bodies[i], ls, rec)
		if err != nil {
			return nil, err
		}
		periods[i] = ps
		if err := replayCAN(st, ls, rec); err != nil {
			return nil, err
		}
	}
	sdir, err := os.MkdirTemp(work, "replay-store-")
	if err != nil {
		return nil, err
	}
	sto, err := store.Open(store.Options{Dir: sdir, CompactRecords: compactRecords,
		CompactBytes: compactBytes, JitterFrac: compactJitter})
	if err != nil {
		return nil, err
	}
	for i, st := range streams {
		if err := replayLearnStore(st, periods[i], sto, ls, rec); err != nil {
			return nil, err
		}
		if err := measureAlloc(st, periods[i], ls); err != nil {
			return nil, err
		}
	}
	if err := replayServe(streams, bodies, work, ls, rec); err != nil {
		return nil, err
	}
	return ls, nil
}

// replayTrace cuts the stream's bodies into periods with the public
// parsers, timing each LineReader.Line call.
func replayTrace(st *streamInput, bodies []string, ls *layerStats, rec *spanRecorder) ([]*trace.Period, error) {
	fp, err := newFeedParser(st)
	if err != nil {
		return nil, err
	}
	fp.timed = true
	root := rec.begin("replay.trace", 0)
	defer rec.end(root)
	var out []*trace.Period
	for _, b := range bodies {
		sp := rec.begin("trace.body", root)
		ps, err := fp.feedBody(b)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", st.id, err)
		}
		out = append(out, ps...)
		ls.lines += int64(strings.Count(b, "\n"))
		ls.requests++
	}
	ls.parseNS += fp.lineNS
	ls.parseCalls += fp.lines
	ls.periodsCut += int64(len(out))
	return out, nil
}

// replayCAN converts the stream's messages, as candump frames, with a
// can.StreamConverter, timing each frame.
func replayCAN(st *streamInput, ls *layerStats, rec *spanRecorder) error {
	conv, err := can.NewStreamConverter(canBitRate)
	if err != nil {
		return err
	}
	sp := rec.begin("replay.can", 0)
	defer rec.end(sp)
	for _, f := range st.frames {
		t0 := time.Now()
		_, err := conv.Line(f)
		ls.frameNS += int64(time.Since(t0))
		ls.frames++
		if err != nil {
			return fmt.Errorf("replay %s: %w", st.id, err)
		}
	}
	return nil
}

// replayLearnStore learns the periods online, as the server's stream
// owner does: AddPeriod, then the period's delta encoded as the WAL
// record, appended and fsynced to a store stream (compacting when the
// store's thresholds say so), then the model a reader would get.
func replayLearnStore(st *streamInput, periods []*trace.Period, sto *store.Store, ls *layerStats, rec *spanRecorder) error {
	tap := newEngineTap(rec, 0)
	opts := st.opts
	opts.Observer = tap
	o, err := learner.NewOnline(st.create.Tasks, opts)
	if err != nil {
		return err
	}
	info := serve.StreamInfo{ID: st.id, Tasks: st.create.Tasks, BitRate: st.create.BitRate,
		PeriodUS: st.create.PeriodUS, Options: st.create.Options}
	meta, err := json.Marshal(info)
	if err != nil {
		return err
	}
	ss, err := sto.Create(st.id, meta, nil, 0)
	if err != nil {
		return err
	}
	defer ss.Close()
	compact := func(seq int) error {
		sp := rec.begin("store.compact", 0)
		t0 := time.Now()
		snap, err := o.Snapshot()
		if err != nil {
			return err
		}
		base, err := json.Marshal(&baseEnvelope{ServeVersion: 1, Info: info, Snapshot: snap})
		if err != nil {
			return err
		}
		err = ss.Compact(base, uint64(seq), meta, time.Now())
		ls.compactNS = append(ls.compactNS, float64(time.Since(t0)))
		rec.end(sp)
		return err
	}
	for k, p := range periods {
		seq := k + 1
		per := rec.begin("learner.add_period", 0)
		tap.parent = per
		clear(tap.phase)
		t0 := time.Now()
		err := o.AddPeriod(p)
		ls.addPeriod = append(ls.addPeriod, float64(time.Since(t0)))
		rec.end(per)
		if err != nil {
			return fmt.Errorf("replay %s period %d: %w", st.id, seq, err)
		}
		ls.candidates = append(ls.candidates, float64(tap.phase[obs.PhaseCandidates]))
		ls.generalize = append(ls.generalize, float64(tap.phase[obs.PhaseGeneralize]))
		ls.postpro = append(ls.postpro, float64(tap.phase[obs.PhasePostprocess]))

		sp := rec.begin("learner.delta", 0)
		t0 = time.Now()
		d, err := o.PeriodDelta()
		if err != nil {
			return err
		}
		payload, err := json.Marshal(&walEntry{Delta: d})
		if err != nil {
			return err
		}
		ls.delta = append(ls.delta, float64(time.Since(t0)))
		rec.end(sp)
		ls.deltaBytes += int64(len(payload))

		before := ss.Stats().WALBytes
		sp = rec.begin("store.append", 0)
		t0 = time.Now()
		err = ss.Append(store.Record{Seq: uint64(seq), Generation: 1, Payload: payload})
		ls.appendNS = append(ls.appendNS, float64(time.Since(t0)))
		rec.end(sp)
		if err != nil {
			return err
		}
		ls.appends++
		ls.walBytes += ss.Stats().WALBytes - before
		if ss.ShouldCompact() {
			ls.compactions++
			if err := compact(seq); err != nil {
				return err
			}
		}

		sp = rec.begin("learner.result", 0)
		t0 = time.Now()
		res, err := o.Result()
		if err != nil {
			return err
		}
		for _, h := range res.Hypotheses {
			_ = h.Table()
		}
		_ = res.LUB.Table()
		ls.result = append(ls.result, float64(time.Since(t0)))
		rec.end(sp)
	}
	// One compaction per stream even when no threshold fired, so the
	// compaction cost is measured on every workload.
	if err := compact(len(periods)); err != nil {
		return err
	}
	s := o.Stats()
	ls.stats.Candidates += s.Candidates
	ls.stats.Children += s.Children
	ls.stats.Merges += s.Merges
	ls.stats.Relaxations += s.Relaxations
	ls.stats.Peak = max(ls.stats.Peak, s.Peak)
	ls.prunedDup += tap.dup
	ls.prunedRed += tap.red
	ls.liveSum += tap.live
	ls.periods += int64(len(periods))
	return nil
}

// measureAlloc learns the periods again without any observer and
// records the bytes the learner allocated.
func measureAlloc(st *streamInput, periods []*trace.Period, ls *layerStats) error {
	o, err := learner.NewOnline(st.create.Tasks, st.opts)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range periods {
		if err := o.AddPeriod(p); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	ls.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// replayServe sends the bodies through a fresh in-process server, one
// request at a time, timing Handler().ServeHTTP for each events POST
// and, once the period it cut is learned, for the model GET. It runs
// on one processor, so the stream owner cannot allocate while an
// events request is being measured.
func replayServe(streams []*streamInput, bodies [][]string, work string, ls *layerStats, rec *spanRecorder) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	srv, err := startServer(work, &inputs{streams: streams})
	if err != nil {
		return err
	}
	defer srv.close()
	var m0, m1 runtime.MemStats
	for i, st := range streams {
		for _, b := range bodies[i] {
			path := "/v1/streams/" + st.id + "/events"
			runtime.ReadMemStats(&m0)
			sp := rec.begin("serve.events", 0)
			t0 := time.Now()
			code, out := srv.do("POST", path, b)
			dt := time.Since(t0)
			rec.end(sp)
			runtime.ReadMemStats(&m1)
			ls.events = append(ls.events, float64(dt))
			ls.eventAlloc = append(ls.eventAlloc, float64(m1.TotalAlloc-m0.TotalAlloc))
			if code == http.StatusTooManyRequests {
				ls.shed++
				continue
			}
			if code != http.StatusAccepted {
				return fmt.Errorf("replay events %s: HTTP %d: %s", st.id, code, out)
			}
			var ir serve.IngestResponse
			if err := json.Unmarshal(out, &ir); err != nil {
				return err
			}
			if ir.Periods == 0 {
				continue
			}
			// Wait for the owner to learn and persist the period, so
			// the timed GET renders the model and nothing else.
			if code, out := srv.do("GET", "/v1/streams/"+st.id+"/stats", ""); code != http.StatusOK {
				return fmt.Errorf("replay stats %s: HTTP %d: %s", st.id, code, out)
			}
			sp = rec.begin("serve.model", 0)
			t0 = time.Now()
			code, out = srv.do("GET", "/v1/streams/"+st.id+"/model", "")
			ls.model = append(ls.model, float64(time.Since(t0)))
			rec.end(sp)
			if code != http.StatusOK {
				return fmt.Errorf("replay model %s: HTTP %d: %s", st.id, code, out)
			}
			ls.modelBytes += int64(len(out))
		}
	}
	return nil
}
