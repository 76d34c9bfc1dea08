package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// Workload shapes. Every number that fixes how much work a run does
// lives here, so a later change to the program cannot shift it.
const (
	// learn-b150: one long trace of the 18-task case study, learned
	// by learner.Learn at bound 150, at least minLearnReps times in
	// each measuring process, so that the per-period samples (at least
	// 1000) give the p99 ten beyond it.
	learnPeriods = 500
	learnBound   = 150
	minLearnReps = 2

	// serve-durable: a working set of lite streams, each cycling
	// through its own simulated periods, one whole period per POST.
	durableStreams = 200
	durablePeriods = 64

	// serve-trickle: a handful of lite streams fed a few lines per
	// request on an open-loop schedule below capacity.
	trickleStreams     = 8
	trickleSimPeriods  = 100
	trickleLinesPerReq = 4
	trickleReqPerSec   = 1000

	// Lite-stream learner options, all set explicitly on the wire.
	liteBound         = 4
	liteMaxHypotheses = 64
	// serveReplayBound is the bound the serve replay of learn-b150
	// asks for: the case-study default, which stays inside any server
	// admission maximum, where 150 might not.
	serveReplayBound         = 32
	serveReplayMaxHypotheses = 64

	canBitRate = 500_000

	// replayStreams caps how many of a workload's streams the traced
	// layer-by-layer replay sends through every layer.
	replayStreams = 8
)

// streamInput is one stream of a workload: what the client creates
// and the request bodies it sends, in order.
type streamInput struct {
	id      string
	create  serve.CreateStreamRequest
	opts    learner.Options // the learner options, for the offline reference and the replay
	candump bool            // candump frames plus exec lines, cut on the period_us grid
	// requests are the bodies the load sends; cyclic marks a feed of
	// self-contained periods that may be replayed from the start when
	// a run outlasts it (per-period clock restarts are legal).
	requests []string
	cyclic   bool
	// frames are the stream's messages as candump frames, the input
	// of the CAN-layer replay (only for the streams the replay uses).
	frames []string
}

// inputs is everything a workload run feeds the program, generated
// from the seed alone.
type inputs struct {
	tasks   []string
	streams []*streamInput
	// learnOpts are learn-b150's learner options (zero elsewhere).
	learnOpts learner.Options
	// simulateNS is the time spent in the simulator.
	simulateNS int64
}

// liteOptions are the serve workloads' learner options in both forms.
func liteOptions() (serve.LearnOptions, learner.Options) {
	pol := casestudy.LitePolicy()
	wire := serve.LearnOptions{
		Bound:          liteBound,
		MaxHypotheses:  liteMaxHypotheses,
		SenderWindow:   pol.SenderWindow,
		ReceiverWindow: pol.ReceiverWindow,
		MaxSenders:     pol.MaxSenders,
		MaxReceivers:   pol.MaxReceivers,
	}
	return wire, learner.Options{Bound: liteBound, MaxHypotheses: liteMaxHypotheses, Policy: pol}
}

// streamSeed derives a stream's simulator seed from the run seed.
func streamSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// makeInputs simulates and renders the workload's inputs. d is how long
// the load will run; it sizes the trickle feeds so they outlast it.
// Each simulation is recorded as a span under parent.
func makeInputs(workload string, seed int64, d time.Duration, rec *spanRecorder, parent int) (*inputs, error) {
	in := &inputs{}
	simulate := func(m *model.Model, periods int, s int64) (*sim.Output, error) {
		sp := rec.begin("sim.simulate", parent)
		t0 := time.Now()
		out, err := sim.Run(m, sim.Options{Periods: periods, Seed: s, BitRate: canBitRate})
		in.simulateNS += int64(time.Since(t0))
		rec.end(sp)
		return out, err
	}
	switch workload {
	case "learn-b150":
		m := casestudy.FullModel()
		out, err := simulate(m, learnPeriods, streamSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		in.tasks = out.Trace.Tasks
		in.learnOpts = learner.Options{Bound: learnBound, Policy: casestudy.FullPolicy()}
		var reqs []string
		for _, p := range out.Trace.Periods {
			reqs = append(reqs, renderTextPeriod(p, 0))
		}
		// The trace's text, one period per body. The layer replay
		// learns it at the workload's own bound and sends it through
		// serve at serveReplayBound, cycling through it as needed.
		in.streams = []*streamInput{{
			id:     "learn-0",
			cyclic: true,
			create: serve.CreateStreamRequest{ID: "learn-0", Tasks: in.tasks,
				Options: serve.LearnOptions{Bound: serveReplayBound, MaxHypotheses: serveReplayMaxHypotheses}},
			opts:     in.learnOpts,
			requests: reqs,
			frames:   framesOf(out, m, streamSeed(seed, 0)),
		}}
	case "serve-durable":
		m := casestudy.LiteModel()
		wire, opts := liteOptions()
		in.tasks = m.TaskNames()
		for i := 0; i < durableStreams; i++ {
			out, err := simulate(m, durablePeriods, streamSeed(seed, i))
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("durable-%d", i)
			st := &streamInput{id: id, opts: opts, cyclic: true,
				create: serve.CreateStreamRequest{ID: id, Tasks: in.tasks, Options: wire}}
			for _, p := range out.Trace.Periods {
				st.requests = append(st.requests, renderTextPeriod(p, 0))
			}
			if i < replayStreams {
				st.frames = framesOf(out, m, streamSeed(seed, i))
			}
			in.streams = append(in.streams, st)
		}
	case "serve-trickle":
		m := casestudy.LiteModel()
		wire, opts := liteOptions()
		in.tasks = m.TaskNames()
		// Lines each stream must supply: its share of the offered
		// line rate over the run, with a margin.
		need := int(trickleReqPerSec*trickleLinesPerReq*d.Seconds())/trickleStreams*5/4 + 64
		for i := 0; i < trickleStreams; i++ {
			out, err := simulate(m, trickleSimPeriods, streamSeed(seed, i))
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("trickle-%d", i)
			st := &streamInput{id: id, opts: opts, candump: i%2 == 1,
				create: serve.CreateStreamRequest{ID: id, Tasks: in.tasks, Options: wire}}
			if st.candump {
				st.create.BitRate = canBitRate
				st.create.PeriodUS = m.Period
			}
			rng := rand.New(rand.NewSource(streamSeed(seed, i)))
			var lines []string
			cycleLen := int64(len(out.Trace.Periods)) * m.Period
			for cycle := int64(0); len(lines) < need; cycle++ {
				for _, p := range out.Trace.Periods {
					if st.candump {
						lines = append(lines, renderCandumpPeriod(p, cycle*cycleLen, m, out.Sent, rng)...)
					} else {
						lines = append(lines, strings.Split(strings.TrimSuffix(renderTextPeriod(p, cycle*cycleLen), "\n"), "\n")...)
					}
				}
			}
			for at := 0; at+trickleLinesPerReq <= len(lines); at += trickleLinesPerReq {
				st.requests = append(st.requests, strings.Join(lines[at:at+trickleLinesPerReq], "\n")+"\n")
			}
			st.frames = framesOf(out, m, streamSeed(seed, i))
			in.streams = append(in.streams, st)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// renderTextPeriod renders one period in the text trace format, closed
// by an explicit period line, with every time shifted by off.
func renderTextPeriod(p *trace.Period, off int64) string {
	var sb strings.Builder
	names := p.ExecutedTasks()
	sort.SliceStable(names, func(i, j int) bool { return p.Execs[names[i]].Start < p.Execs[names[j]].Start })
	for _, t := range names {
		iv := p.Execs[t]
		fmt.Fprintf(&sb, "exec %s %d %d\n", t, iv.Start+off, iv.End+off)
	}
	for _, msg := range p.Msgs {
		fmt.Fprintf(&sb, "msg %s %d %d\n", msg.ID, msg.Rise+off, msg.Fall+off)
	}
	sb.WriteString("period\n")
	return sb.String()
}

// renderCandumpPeriod renders one period as a logger would capture it:
// each message becomes a candump frame at its rising edge, with the
// CAN identifier and payload length of the design edge that sent it;
// task executions stay exec lines. Lines are in time order, and no
// period line is sent — the server cuts on its period_us grid.
func renderCandumpPeriod(p *trace.Period, off int64, m *model.Model, sent map[string]sim.SentMessage, rng *rand.Rand) []string {
	type line struct {
		t    int64
		text string
	}
	var ls []line
	for _, t := range p.ExecutedTasks() {
		iv := p.Execs[t]
		ls = append(ls, line{iv.Start + off, fmt.Sprintf("exec %s %d %d", t, iv.Start+off, iv.End+off)})
	}
	for _, msg := range p.Msgs {
		id, dlc := canFrameOf(m, sent[msg.ID])
		t := msg.Rise + off
		data := make([]byte, dlc)
		rng.Read(data)
		ls = append(ls, line{t, fmt.Sprintf("(%d.%06d) can0 %03X#%X", t/1_000_000, t%1_000_000, id, data)})
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].t < ls[j].t })
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.text
	}
	return out
}

// framesOf renders every message of a simulated trace as a candump
// frame, in time order.
func framesOf(out *sim.Output, m *model.Model, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var frames []string
	for _, p := range out.Trace.Periods {
		for _, l := range renderCandumpPeriod(p, 0, m, out.Sent, rng) {
			if strings.HasPrefix(l, "(") {
				frames = append(frames, l)
			}
		}
	}
	return frames
}

// canFrameOf maps a simulated message to the identifier and payload
// length of its design edge; a message without a receiver is the
// infrastructure sync frame.
func canFrameOf(m *model.Model, s sim.SentMessage) (int, int) {
	if s.To == "" {
		return m.SyncCANID, m.SyncDLC
	}
	for _, e := range m.Edges {
		if e.From == s.From && e.To == s.To {
			return e.CANID, e.DLC
		}
	}
	return m.SyncCANID, m.SyncDLC
}
