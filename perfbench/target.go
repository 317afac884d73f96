package main

// target.go sets a workload's system up and drives it: dataset
// generation, the backend (in-process System, persistent System, or a
// networked coordinator over loopback transport workers), bulk load,
// a warm pass, and the in-process HTTP client that hands pre-encoded
// /v1 bodies to httpapi.Server.ServeHTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"fairhealth"
	"fairhealth/internal/dataset"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/partition"
	"fairhealth/internal/partition/transport"
)

// netWorkers is the transport worker count behind fanout-net.
const netWorkers = 3

// target is one set-up system under test.
type target struct {
	spec    Spec
	backend httpapi.Backend
	handler http.Handler
	// state is the System whose ratings the answer check rebuilds from:
	// the backend itself, or worker 0 (every worker holds a full
	// replica).
	state *fairhealth.System
	// caches are the Systems whose caches serve relevance: the backend,
	// or the workers.
	caches  []*fairhealth.System
	net     *partition.Networked
	walPath string
	// workerOf maps a networked worker's ring index to its System.
	workerOf []*fairhealth.System
	closers  []func() error
}

// benchConfig is the System configuration of every workload: the
// defaults (δ=0.5, MinOverlap=2, K=10, avg, user-cf).
var benchConfig = fairhealth.Config{}

// setup builds spec's system for seed and warms it. n numbers repeated
// set-ups so persistent ones get their own WAL directory. tr, when
// non-nil, wraps the backend and the workers with timing spans
// (disabled until the traced phase starts).
func setup(spec Spec, seed int64, workDir string, n int, tr *tracer) (*target, *Generator, error) {
	ds, err := dataset.Generate(dataset.Config{Seed: seed, Users: spec.Users, Items: spec.Items, RatingsPerUser: spec.RatingsPerUser})
	if err != nil {
		return nil, nil, fmt.Errorf("generate cohort: %w", err)
	}
	gen := NewGenerator(spec, seed, ds)
	t := &target{spec: spec}
	if err := t.start(workDir, n, tr); err != nil {
		t.close()
		return nil, nil, err
	}
	if err := t.load(ds); err != nil {
		t.close()
		return nil, nil, err
	}
	if err := t.warm(gen); err != nil {
		t.close()
		return nil, nil, err
	}
	var be httpapi.Backend = t.backend
	if tr != nil {
		be = &timedBackend{Backend: t.backend, tr: tr}
	}
	t.handler = httpapi.NewWithOptions(be, httpapi.Options{Logger: log.New(io.Discard, "", 0)})
	return t, gen, nil
}

func (t *target) start(workDir string, n int, tr *tracer) error {
	switch t.spec.Backend {
	case backendSystem:
		sys, err := fairhealth.New(benchConfig)
		if err != nil {
			return err
		}
		t.closers = append(t.closers, sys.Close)
		t.backend, t.state, t.caches = sys, sys, []*fairhealth.System{sys}
	case backendPersistent:
		dir := filepath.Join(workDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), n))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		sys, err := fairhealth.NewPersistent(benchConfig, dir)
		if err != nil {
			return err
		}
		t.closers = append(t.closers, func() error { return os.RemoveAll(dir) }, sys.Close)
		t.backend, t.state, t.caches = sys, sys, []*fairhealth.System{sys}
		t.walPath = filepath.Join(dir, "events.wal")
	case backendNetworked:
		addrs := make([]string, netWorkers)
		for i := range addrs {
			sys, err := fairhealth.New(benchConfig)
			if err != nil {
				return err
			}
			t.closers = append(t.closers, sys.Close)
			var be transport.Backend = sys
			if tr != nil {
				be = &timedWorker{Backend: sys, tr: tr}
			}
			srv := transport.NewServer(be, partition.ConfigFingerprint(sys.Config()))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ln) }()
			t.closers = append(t.closers, func() error {
				err := srv.Close()
				if serr := <-done; serr != nil && err == nil {
					err = serr
				}
				return err
			})
			addrs[i] = ln.Addr().String()
			t.workerOf = append(t.workerOf, sys)
		}
		coord, err := partition.NewNetworked(benchConfig, addrs, partition.NetOptions{})
		if err != nil {
			return err
		}
		t.closers = append(t.closers, coord.Close)
		if live := coord.LiveCount(); live != netWorkers {
			return fmt.Errorf("networked: %d of %d workers live", live, netWorkers)
		}
		t.backend, t.net, t.state, t.caches = coord, coord, t.workerOf[0], t.workerOf
	default:
		return fmt.Errorf("unknown backend %q", t.spec.Backend)
	}
	return nil
}

// load bulk-loads the cohort's profiles and ratings through the
// backend's write path.
func (t *target) load(ds *dataset.Dataset) error {
	for _, id := range ds.Profiles.IDs() {
		prof, err := ds.Profiles.Get(id)
		if err != nil {
			return err
		}
		problems := make([]string, len(prof.Problems))
		for k, c := range prof.Problems {
			problems[k] = string(c)
		}
		if err := t.backend.AddPatient(fairhealth.Patient{
			ID: string(prof.ID), Age: prof.Age, Gender: string(prof.Gender),
			Problems: problems, Medications: prof.Medications,
		}); err != nil {
			return fmt.Errorf("load patient %s: %w", id, err)
		}
	}
	for _, tr := range ds.Ratings.Triples() {
		if err := t.backend.AddRating(string(tr.User), string(tr.Item), float64(tr.Value)); err != nil {
			return fmt.Errorf("load rating: %w", err)
		}
	}
	return nil
}

// warm serves every group-memo key the stream can use once, so the
// timed phases start with hot caches.
func (t *target) warm(gen *Generator) error {
	var qs []fairhealth.GroupQuery
	for _, b := range gen.WarmQueries() {
		qs = append(qs, fairhealth.GroupQuery{Members: b.Members, Scorer: b.Scorer, Aggregation: b.Aggregation})
	}
	res, err := t.backend.ServeBatch(context.Background(), qs)
	if err != nil {
		return fmt.Errorf("warm pass: %w", err)
	}
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("warm pass %v: %w", r.Group, r.Err)
		}
	}
	return nil
}

// close releases the target in reverse set-up order.
func (t *target) close() error {
	var errs []error
	for k := len(t.closers) - 1; k >= 0; k-- {
		if err := t.closers[k](); err != nil {
			errs = append(errs, err)
		}
	}
	t.closers = nil
	return errors.Join(errs...)
}

// walBytes reports the WAL file size (0 without one).
func (t *target) walBytes() int64 {
	if t.walPath == "" {
		return 0
	}
	st, err := os.Stat(t.walPath)
	if err != nil {
		return 0
	}
	return st.Size()
}

// cacheStats sums CacheStats over the Systems that serve relevance.
func (t *target) cacheStats() fairhealth.CacheStats {
	var sum fairhealth.CacheStats
	add := func(d *fairhealth.CacheCounters, s fairhealth.CacheCounters) {
		d.Hits += s.Hits
		d.Misses += s.Misses
		d.Evictions += s.Evictions
	}
	for _, s := range t.caches {
		cs := s.CacheStats()
		add(&sum.Similarity, cs.Similarity)
		add(&sum.Peers, cs.Peers)
		add(&sum.Groups, cs.Groups)
	}
	return sum
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// client hands requests to the handler in process. One per sender.
type client struct {
	h http.Handler
	w respWriter
}

func newClient(h http.Handler) *client { return &client{h: h, w: respWriter{h: make(http.Header)}} }

// do sends one request and returns the status and the response body,
// which stays valid until the next call.
func (c *client) do(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	clear(c.w.h)
	c.w.status = 0
	c.w.buf.Reset()
	c.h.ServeHTTP(&c.w, req)
	return c.w.status, c.w.buf.Bytes(), nil
}

// wellFormed checks one response's status and body shape.
func wellFormed(kind, status int, body []byte) bool {
	switch kind {
	case opWrite:
		return status == http.StatusCreated && bytes.HasPrefix(body, []byte(`{"user":`))
	case opQuery:
		// An empty list is an answer: no item has a prediction for
		// every member.
		if status != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"items":[`)) {
			return false
		}
	case opBatch:
		if status != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"results":[{"index":0,`)) ||
			!bytes.HasSuffix(body, []byte(`"failed":0}`+"\n")) || bytes.Contains(body, []byte(`"error":`)) {
			return false
		}
	}
	return json.Valid(body)
}
