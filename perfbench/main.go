// Command perfbench is the repository's benchmark. It runs one named
// workload against the model-generation code in a single process,
// checks the program's outputs, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload learn-b150 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run, which replays the
// same inputs through each layer's public functions and writes the
// spans it recorded under .bench_build/spans/. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// processes is how many fresh processes an untraced run measures
	// in, one after another, each for its share of --seconds; every
	// end-to-end metric is the median of theirs. Runs of one binary on
	// one input differ by more from process to process than within a
	// process, so a median over processes is what makes a run steady.
	processes = 3
	// warmup is how long the serve workloads run before measuring, so
	// every store has compacted and the heap has grown to its working
	// size.
	warmup = 2 * time.Second
	// workDir holds everything a run writes: stores, spans, counters.
	workDir = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "learn-b150, serve-durable or serve-trickle")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 24, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced layer-by-layer run")
	childMS := flag.Int("child-ms", 0, "internal: measure in this process for this many milliseconds")
	flag.Parse()
	out, err := run(*workload, *seed, *seconds, *traced == 1, time.Duration(*childMS)*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(workload string, seed int64, seconds int, traced bool, child time.Duration) (*output, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	switch workload {
	case "learn-b150", "serve-durable", "serve-trickle":
	default:
		return nil, fmt.Errorf("unknown --workload %q", workload)
	}
	work, err := filepath.Abs(filepath.Join(workDir, "work"))
	if err != nil {
		return nil, err
	}
	b := &bench{workload: workload, seed: seed, seconds: seconds, work: work}
	if child > 0 {
		return b.measure(child)
	}
	// Stores stay on disk until the run is over: the work directory is
	// cleared, and the deletions synced, before and after.
	if err := cleanWork(work); err != nil {
		return nil, err
	}
	var out *output
	if traced {
		out, err = b.traced()
	} else {
		out, err = b.orchestrate()
	}
	if cerr := cleanWork(work); err == nil {
		err = cerr
	}
	return out, err
}

type bench struct {
	workload string
	seed     int64
	seconds  int
	work     string
}

// orchestrate runs the untraced measurement in fresh child processes
// of this binary, one at a time, and reports the median of each
// end-to-end metric. The children's own summary lines are passed on.
func (b *bench) orchestrate() (*output, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	share := time.Duration(b.seconds) * time.Second / processes
	agg := &output{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	for k := 0; k < processes; k++ {
		cmd := exec.Command(exe, "--workload", b.workload, "--seed", strconv.FormatInt(b.seed, 10),
			"--seconds", strconv.Itoa(b.seconds), "--child-ms", strconv.FormatInt(share.Milliseconds(), 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", k+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var out output
		dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			return nil, fmt.Errorf("measuring process %d: result: %w", k+1, err)
		}
		names := make([]string, 0, len(out.Metrics))
		for name := range out.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, " %s=%.4g", name, out.Metrics[name].Value)
		}
		fmt.Printf("process %d:%s\n", k+1, sb.String())
		agg.Correct = agg.Correct && out.Correct
		agg.Attempted += out.Attempted
		agg.Failed += out.Failed
		for name, m := range out.Metrics {
			values[name] = append(values[name], m.Value)
			agg.Metrics[name] = m
		}
	}
	for name, vs := range values {
		agg.Metrics[name] = metric{median(vs), agg.Metrics[name].Unit}
	}
	return agg, nil
}

// setup makes the inputs, sized for a run that measures for d, and,
// for the serve workloads, opens a store and creates every stream. It
// returns the CPU time the set-up took.
func (b *bench) setup(d time.Duration, rec *spanRecorder) (*inputs, *server, time.Duration, error) {
	root := rec.begin("setup", 0)
	defer rec.end(root)
	c0 := processCPU()
	in, err := makeInputs(b.workload, b.seed, d+warmup, rec, root)
	if err != nil {
		return nil, nil, 0, err
	}
	var srv *server
	if b.workload != "learn-b150" {
		if srv, err = startServer(b.work, in); err != nil {
			return nil, nil, 0, err
		}
	}
	return in, srv, processCPU() - c0, nil
}

// load runs the workload's load for d.
func (b *bench) load(in *inputs, srv *server, fs *feedState, d time.Duration, rec *spanRecorder) *loadResult {
	switch b.workload {
	case "learn-b150":
		return runLearn(in, d, rec)
	case "serve-durable":
		return runDurable(in, srv, fs, d, rec)
	default:
		return runTrickle(in, srv, fs, d, rec)
	}
}

// measure is one measuring process: set up, warm up, run the load for
// d, hold every served model to the offline reference, and report the
// end-to-end metrics.
func (b *bench) measure(d time.Duration) (*output, error) {
	in, srv, setup, err := b.setup(d, nil)
	if err != nil {
		return nil, err
	}
	fs := newFeedState(len(in.streams))
	if srv != nil {
		b.load(in, srv, fs, warmup, nil)
	}
	res := b.load(in, srv, fs, d, nil)
	if srv != nil {
		res.merge(checkStreams(in, srv, fs))
		srv.close()
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	out := &output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { out.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", setup.Seconds())
	put("max_rss_mb", "MB", maxRSSMB())
	put("periods_per_cpu_s", "1/s", float64(res.acked)/res.progCPU.Seconds())
	op, unsupported := opCPUMetrics(b.workload, res)
	put("op_cpu_p50_us", "us", op["op_cpu_p50_us"].Value)
	put("op_cpu_p90_us", "us", op["op_cpu_p90_us"].Value)
	// The wall-clock figures are the traced run's; here they only go
	// to the summary line.
	wall, wallUnsupported := wallMetrics(b.workload, res)
	unsupported = append(unsupported, wallUnsupported...)
	late := sortedCopy(durations(res.late, time.Microsecond))
	lateP50, _ := percentile(late, 50)
	lateP99, _ := percentile(late, 99)
	fmt.Printf("%s seed %d: %d ops, op CPU p99 %.1fus, %d acks, %d ingests, %d periods learned in %.2fs wall, %.2fs program CPU; "+
		"wall rate %.1f/s ack p50 %.3fms p99 %.3fms ingest p50 %.1fus p99 %.1fus; failed %d of %d, generator late p50 %.1fus p99 %.1fus\n",
		b.workload, b.seed, len(res.opCPU), op["op_cpu_p99_us"].Value, len(res.ack), len(res.ingest), res.acked, res.busy.Seconds(), res.progCPU.Seconds(),
		wall["learn_periods_per_s"].Value, wall["ack_p50_ms"].Value, wall["ack_p99_ms"].Value,
		wall["ingest_p50_us"].Value, wall["ingest_p99_us"].Value, res.failed, res.attempted, lateP50, lateP99)
	if len(unsupported) > 0 {
		return nil, fmt.Errorf("too few samples beyond %s", strings.Join(unsupported, ", "))
	}
	return out, nil
}

// opCPUMetrics are the percentiles of the CPU time of one operation on
// the request path. The p99 rests on the garbage collector's assists,
// which come and go with its timing, so only p50 and p90 are gated; the
// p99 is reported by the traced run. It also names those whose
// percentile has too few samples beyond it. Learn's per-period samples
// come in repetitions of the same periods and are pooled; the serve
// workloads' are windowed like the wall-clock latencies.
func opCPUMetrics(workload string, res *loadResult) (map[string]metric, []string) {
	var at []time.Duration
	switch workload {
	case "serve-durable":
		at = res.ackAt
	case "serve-trickle":
		at = res.ingestAt
	}
	m := map[string]metric{}
	var unsupported []string
	for _, p := range []float64{50, 90, 99} {
		name := fmt.Sprintf("op_cpu_p%.0f_us", p)
		v, ok := windowed(res.opCPU, at, res.busy, p, time.Microsecond)
		if !ok {
			unsupported = append(unsupported, fmt.Sprintf("%s (%d samples)", name, len(res.opCPU)))
		}
		m[name] = metric{v, "us"}
	}
	return m, unsupported
}

// wallMetrics are the wall-clock figures of a run: what a client of the
// program waits. They move with the host's load as much as with the
// program (a shared disk's fsync alone varies several-fold), so they
// are per-layer metrics of the traced run, not gated end-to-end ones.
// It also names those whose percentile has too few samples beyond it.
func wallMetrics(workload string, res *loadResult) (map[string]metric, []string) {
	m := map[string]metric{}
	var unsupported []string
	pct := func(name, unit string, xs, at []time.Duration, p float64, u time.Duration) {
		v, ok := windowed(xs, at, res.busy, p, u)
		if !ok {
			unsupported = append(unsupported, fmt.Sprintf("%s (%d samples)", name, len(xs)))
		}
		m[name] = metric{v, unit}
	}
	// Every period the program learns it also acknowledges (the checks
	// hold it to that), so the two rates agree by construction.
	var rate float64
	switch workload {
	case "learn-b150":
		rate = median(res.repRates)
	case "serve-durable":
		rate = windowRate(res.ackAt, res.busy)
	default:
		rate = float64(res.acked) / res.busy.Seconds()
	}
	m["learn_periods_per_s"] = metric{rate, "1/s"}
	m["acked_periods_per_s"] = metric{rate, "1/s"}
	pct("ack_p50_ms", "ms", res.ack, res.ackAt, 50, time.Millisecond)
	pct("ack_p99_ms", "ms", res.ack, res.ackAt, 99, time.Millisecond)
	pct("ingest_p50_us", "us", res.ingest, res.ingestAt, 50, time.Microsecond)
	pct("ingest_p90_us", "us", res.ingest, res.ingestAt, 90, time.Microsecond)
	pct("ingest_p99_us", "us", res.ingest, res.ingestAt, 99, time.Microsecond)
	return m, unsupported
}

// traced is the layer-by-layer run. It sets up once, runs the load for
// half the time untraced and half with spans around each client call
// (their ratio is the tracing overhead), checks the served models,
// then replays the inputs through each layer.
func (b *bench) traced() (*output, error) {
	rec := newSpanRecorder()
	d := time.Duration(b.seconds) * time.Second
	in, srv, _, err := b.setup(d, rec)
	if err != nil {
		return nil, err
	}
	half := d / 2
	fs := newFeedState(len(in.streams))
	if srv != nil {
		b.load(in, srv, fs, warmup, nil)
	}
	plain := b.load(in, srv, fs, half, nil)
	tr := b.load(in, srv, fs, half, rec)
	total := &loadResult{}
	total.merge(plain)
	total.merge(tr)
	if srv != nil {
		total.merge(checkStreams(in, srv, fs))
		srv.close()
	}
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	ls, err := replayLayers(in, b.work, rec)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(ls)
	wall, _ := wallMetrics(b.workload, plain)
	for name, v := range wall {
		m[name] = v
	}
	op, _ := opCPUMetrics(b.workload, plain)
	m["op_cpu_p99_us"] = op["op_cpu_p99_us"]
	// The untraced half's median ack minus the replayed layers on the
	// ack path: what HTTP, queue handoff and goroutine switches add.
	ackNS := median(durations(plain.ack, time.Nanosecond))
	m["serve.residual_ns"] = metric{ackNS - ackPathNS(b.workload, ls, m), "ns"}
	m["serve.shed"] = metric{float64(int64(total.shed) + ls.shed), "count"}
	m["obs.trace_overhead_ratio"] = metric{median(durations(tr.ack, time.Nanosecond)) / ackNS, "ratio"}
	late, _ := percentile(sortedCopy(durations(total.late, time.Microsecond)), 99)
	m["load.late_p99_us"] = metric{late, "us"}
	m["sim.simulate_s"] = metric{float64(in.simulateNS) / 1e9, "s"}
	m["fail_ratio"] = metric{float64(total.failed) / float64(max(total.attempted, 1)), "ratio"}

	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := rec.write(base + ".jsonl"); err != nil {
		return nil, err
	}
	if err := writeCounters(base+".counters.json", m); err != nil {
		return nil, err
	}
	return &output{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// ackPathNS sums the replayed layers one acknowledgement waits for.
func ackPathNS(workload string, ls *layerStats, m map[string]metric) float64 {
	switch workload {
	case "learn-b150":
		return m["learner.add_period_ns"].Value
	case "serve-durable":
		perPeriod := float64(ls.parseNS) / float64(max(ls.periodsCut, 1))
		return perPeriod + m["learner.add_period_ns"].Value + m["learner.delta_ns"].Value +
			m["store.append_fsync_ns"].Value + m["learner.result_ns"].Value
	default:
		return float64(ls.parseNS) / float64(max(ls.requests, 1))
	}
}

// layerMetrics turns the replay's measurements into per-layer metrics.
func layerMetrics(ls *layerStats) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	div := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }
	put("trace.parse_ns_per_line", "ns", div(ls.parseNS, ls.parseCalls))
	put("can.frame_ns", "ns", div(ls.frameNS, ls.frames))
	put("trace.lines", "count", float64(ls.lines))
	put("trace.periods_cut", "count", float64(ls.periodsCut))
	put("serve.events_ns", "ns", median(ls.events))
	put("serve.events_alloc_bytes_per_req", "bytes", median(ls.eventAlloc))
	put("serve.model_ns", "ns", median(ls.model))
	put("serve.model_bytes", "bytes", div(ls.modelBytes, int64(len(ls.model))))
	put("learner.add_period_ns", "ns", median(ls.addPeriod))
	put("engine.candidates_ns", "ns", median(ls.candidates))
	put("engine.generalize_ns", "ns", median(ls.generalize))
	put("engine.postprocess_ns", "ns", median(ls.postpro))
	put("engine.candidates", "count", float64(ls.stats.Candidates))
	put("engine.children", "count", float64(ls.stats.Children))
	put("engine.merges", "count", float64(ls.stats.Merges))
	put("engine.relaxations", "count", float64(ls.stats.Relaxations))
	put("engine.peak_live", "count", float64(ls.stats.Peak))
	put("engine.pruned_duplicate", "count", float64(ls.prunedDup))
	put("engine.pruned_redundant", "count", float64(ls.prunedRed))
	put("engine.survival_ratio", "ratio", div(ls.liveSum, int64(ls.stats.Children)))
	put("engine.alloc_bytes_per_period", "bytes", float64(ls.allocBytes)/float64(max(ls.periods, 1)))
	put("learner.delta_ns", "ns", median(ls.delta))
	put("learner.delta_bytes", "bytes", div(ls.deltaBytes, ls.periods))
	put("learner.result_ns", "ns", median(ls.result))
	app := sortedCopy(ls.appendNS)
	p50, _ := percentile(app, 50)
	p99, _ := percentile(app, 99)
	put("store.append_fsync_ns", "ns", p50)
	put("store.append_fsync_ns.p99", "ns", p99)
	put("store.appends", "count", float64(ls.appends))
	put("store.wal_bytes", "bytes", float64(ls.walBytes))
	put("store.compact_ns", "ns", median(ls.compactNS))
	put("store.compactions", "count", float64(ls.compactions))
	return m
}

// workCounters are the per-layer metrics that count work rather than
// time it: for a fixed seed they repeat exactly on any host.
var workCounters = []string{
	"engine.candidates", "engine.children", "engine.merges", "engine.relaxations",
	"engine.peak_live", "engine.pruned_duplicate", "engine.pruned_redundant",
	"store.appends", "store.wal_bytes", "trace.lines", "trace.periods_cut",
}

// writeCounters records the run's work counters beside its spans.
func writeCounters(path string, m map[string]metric) error {
	c := map[string]float64{}
	for _, name := range workCounters {
		c[name] = m[name].Value
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
