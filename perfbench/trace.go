package main

// trace.go is the traced run's instrumentation, all of it outside the
// program: spans recorded around calls into public functions (the HTTP
// handler, a timing wrapper around the httpapi Backend, a timing
// wrapper around each transport worker's Backend), kept in memory and
// written out as JSON lines at the end. The traced run uses one client,
// so the tracer's "current request" is unambiguous and a worker span
// belongs to exactly the request in flight.

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairhealth"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/model"
	"fairhealth/internal/partition/transport"
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; Parent is 0 for a request's root span. Miss marks a serve
// span that missed the group memo.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Miss   bool   `json:"miss,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. Recording is off until on is set.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	ids    atomic.Uint32
	req    atomic.Uint64 // the request in flight
	root   atomic.Uint32 // its handler span
	parent atomic.Uint32 // its backend span
	last   atomic.Int64  // duration of the latest backend span, ns
	// memoMisses, when set, reads the backend's group-memo miss
	// counter, and each traced query's serve span is marked with
	// whether it missed. The reading walks the caches, so it is taken
	// between requests and only in the phases that use it.
	memoMisses func() uint64
	lastMiss   atomic.Bool // whether the latest query missed the memo

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginRequest opens a request: it becomes the one in flight and its
// handler span ID is returned (0 while recording is off).
func (t *tracer) beginRequest() uint32 {
	if !t.on.Load() {
		return 0
	}
	t.req.Add(1)
	id := t.ids.Add(1)
	t.root.Store(id)
	t.parent.Store(0)
	t.lastMiss.Store(false)
	return id
}

// endRequest records the handler span of request id.
func (t *tracer) endRequest(id uint32, kind int, start, end time.Time) {
	if id == 0 {
		return
	}
	t.record(span{Name: "httpapi." + kindName[kind], Req: t.req.Load(), ID: id, Start: t.ns(start), End: t.ns(end)})
}

var kindName = [...]string{opQuery: "query", opBatch: "batch", opWrite: "write"}

// child times fn as a child span of the request's handler span and
// makes it the parent of worker spans recorded meanwhile.
func (t *tracer) child(name string, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	id := t.ids.Add(1)
	t.parent.Store(id)
	start := time.Now()
	fn()
	s := span{Name: name, Req: t.req.Load(), ID: id, Parent: t.root.Load(), Start: t.ns(start), End: t.ns(time.Now())}
	t.last.Store(s.dur())
	t.record(s)
}

// markMiss marks the serve span under handler span root as a
// group-memo miss.
func (t *tracer) markMiss(root uint32) {
	t.lastMiss.Store(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := len(t.spans) - 1; k >= 0; k-- {
		if s := &t.spans[k]; s.Parent == root && s.Name == "serve" {
			s.Miss = true
			return
		}
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedBackend is the httpapi Backend with Serve, ServeBatch and
// AddRating timed.
type timedBackend struct {
	httpapi.Backend
	tr *tracer
}

func (b *timedBackend) Serve(ctx context.Context, q fairhealth.GroupQuery) (res *fairhealth.GroupResult, err error) {
	b.tr.child("serve", func() { res, err = b.Backend.Serve(ctx, q) })
	return res, err
}

func (b *timedBackend) ServeBatch(ctx context.Context, qs []fairhealth.GroupQuery) (res []fairhealth.BatchGroupResult, err error) {
	b.tr.child("serve_batch", func() { res, err = b.Backend.ServeBatch(ctx, qs) })
	return res, err
}

func (b *timedBackend) AddRating(user, item string, value float64) (err error) {
	b.tr.child("add_rating", func() { err = b.Backend.AddRating(user, item, value) })
	return err
}

// timedWorker is a transport worker's Backend with MemberRelevances
// timed as a child of the coordinator's serve span.
type timedWorker struct {
	transport.Backend
	tr *tracer
}

func (w *timedWorker) MemberRelevances(scorer, user string, approx bool) (m map[model.ItemID]float64, err error) {
	if !w.tr.on.Load() {
		return w.Backend.MemberRelevances(scorer, user, approx)
	}
	start := time.Now()
	m, err = w.Backend.MemberRelevances(scorer, user, approx)
	w.tr.record(span{Name: "worker.relevances", Req: w.tr.req.Load(), ID: w.tr.ids.Add(1),
		Parent: w.tr.parent.Load(), Start: w.tr.ns(start), End: w.tr.ns(time.Now())})
	return m, err
}

// spanIndex groups recorded spans for the per-layer derivations.
type spanIndex struct {
	byName   map[string][]span
	children map[uint32][]span
}

func (t *tracer) index() spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := spanIndex{byName: make(map[string][]span), children: make(map[uint32][]span)}
	for _, s := range t.spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// self is s's duration minus the part of its interval covered by its
// children (overlapping children count once).
func (ix spanIndex) self(s span) int64 {
	kids := append([]span(nil), ix.children[s.ID]...)
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	covered, until := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, until), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			until = hi
		}
	}
	return s.dur() - covered
}

// durationsUS lists the durations of spans named name, in microseconds.
func (ix spanIndex) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/1e3)
	}
	return out
}
