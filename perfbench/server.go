package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"time"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// server is an in-process model-generation service with a state store
// in a temp dir under the benchmark's work directory. Requests go
// straight into its Handler, as cmd/bbload's in-process mode does: no
// sockets, so the numbers are the program's, not the kernel's.
type server struct {
	sv  *serve.Server
	h   http.Handler
	dir string
}

// The server's store and queue settings, fixed here rather than left
// to the program's defaults so that a change of default does not
// change a workload. A stream's WAL is folded into a base snapshot
// every compactRecords periods (give or take the jitter): in
// serve-durable that is every few seconds per stream, so compactions
// are steady through a run, and about one acknowledgement in 32 waits
// for one, which puts ack_p99_ms squarely on the compaction path.
const (
	compactRecords = 32
	compactBytes   = 4 << 20
	compactJitter  = 0.2
	queueDepth     = 256
)

// startServer opens a fresh store and creates every stream of in.
func startServer(work string, in *inputs) (*server, error) {
	dir, err := os.MkdirTemp(work, "store-")
	if err != nil {
		return nil, err
	}
	sv := serve.New(serve.Config{
		CheckpointDir:   dir,
		CheckpointEvery: compactRecords,
		CompactBytes:    compactBytes,
		CompactJitter:   compactJitter,
		QueueDepth:      queueDepth,
	})
	s := &server{sv: sv, h: sv.Handler(), dir: dir}
	for _, st := range in.streams {
		if err := s.create(st); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *server) create(st *streamInput) error {
	body, err := json.Marshal(st.create)
	if err != nil {
		return err
	}
	if code, out := s.do("POST", "/v1/streams", string(body)); code != http.StatusCreated {
		return fmt.Errorf("create stream %s: HTTP %d: %s", st.id, code, out)
	}
	return nil
}

// close drains the server. Its store stays on disk until cleanWork,
// so that no deletion is being written back while a later measurement
// fsyncs.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.sv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
}

// cleanWork removes everything runs left in the work directory and
// waits until the deletions are on disk.
func cleanWork(work string) error {
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	syscall.Sync()
	return os.MkdirAll(work, 0o755)
}

// do serves one request through the handler.
func (s *server) do(method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// model fetches a stream's served model.
func (s *server) model(id string) (*serve.ModelResponse, error) {
	code, out := s.do("GET", "/v1/streams/"+id+"/model", "")
	if code != http.StatusOK {
		return nil, fmt.Errorf("model %s: HTTP %d: %s", id, code, out)
	}
	var m serve.ModelResponse
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("model %s: %w", id, err)
	}
	return &m, nil
}

// checkServed holds a stream's served model to the offline reference:
// the bodies the server accepted, cut into periods by feedParser and
// learned by learner.Learn with the stream's options, must give the
// same hypothesis tables, in order, and the same LUB.
func (s *server) checkServed(st *streamInput, accepted []string) error {
	m, err := s.model(st.id)
	if err != nil {
		return err
	}
	periods, err := cutPeriods(st, accepted)
	if err != nil {
		return fmt.Errorf("stream %s: offline parse: %w", st.id, err)
	}
	if m.Periods != len(periods) {
		return fmt.Errorf("stream %s: served %d periods, fed %d", st.id, m.Periods, len(periods))
	}
	if len(periods) == 0 {
		return nil
	}
	ref, err := learner.Learn(&trace.Trace{Tasks: st.create.Tasks, Periods: periods}, st.opts)
	if err != nil {
		return fmt.Errorf("stream %s: offline learn: %w", st.id, err)
	}
	if len(ref.Hypotheses) != len(m.Hypotheses) {
		return fmt.Errorf("stream %s: served %d hypotheses, reference %d", st.id, len(m.Hypotheses), len(ref.Hypotheses))
	}
	for i, d := range ref.Hypotheses {
		if d.Table() != m.Hypotheses[i] {
			return fmt.Errorf("stream %s: hypothesis %d differs from the reference", st.id, i)
		}
	}
	if ref.LUB.Table() != m.LUB {
		return fmt.Errorf("stream %s: LUB differs from the reference", st.id)
	}
	return nil
}
