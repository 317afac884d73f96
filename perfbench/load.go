package main

// load.go drives a target: an open-loop sender pool at a fixed offered
// rate (latency timed from each request's due time), a closed-loop
// capacity phase, and the latency summaries both report.

import (
	"cmp"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands in for the latency of a failed or refused
// request: it misses every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// stream yields op i of a request stream.
type stream func(i int) (Op, error)

// buffered pre-encodes ops [0, n) of s so the timed path does not pay
// for encoding; later ops are encoded on demand (s is a pure function
// of i, so both paths give the same bytes).
func buffered(s stream, n int) (stream, error) {
	buf := make([]Op, n)
	for i := range buf {
		op, err := s(i)
		if err != nil {
			return nil, err
		}
		buf[i] = op
	}
	return func(i int) (Op, error) {
		if i < len(buf) {
			return buf[i], nil
		}
		return s(i)
	}, nil
}

// phase is what one load phase measured.
type phase struct {
	lat       [3][]time.Duration // per op kind
	lag       []time.Duration    // open loop only: start − due
	attempted int
	failed    int
	queries   int // group queries carried (singles + batch members)
	writes    int
	elapsed   time.Duration
	next      int // first stream index the phase did not use
}

func (p *phase) merge(o *phase) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], o.lat[k]...)
	}
	p.lag = append(p.lag, o.lag...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.queries += o.queries
	p.writes += o.writes
}

// sender runs ops against the handler and records their outcome.
type sender struct {
	c  *client
	tr *tracer // nil: untraced
	phase
	err error
	// memoSeen is the group-memo miss count after the latest op, when
	// the tracer reads it (memoRead). The traced run has one sender,
	// so a rise between two readings belongs to the op between them.
	memoSeen uint64
	memoRead bool
}

// run sends op, due at due (zero: closed loop, timed from its start),
// and returns the response status and body (valid until the next run).
func (s *sender) run(op Op, due time.Time) (int, []byte) {
	var id uint32
	memo := s.tr != nil && s.tr.memoMisses != nil
	if memo && !s.memoRead {
		s.memoSeen, s.memoRead = s.tr.memoMisses(), true
	}
	if s.tr != nil {
		id = s.tr.beginRequest()
	}
	start := time.Now()
	status, body, err := s.c.do(op.Path, op.Body)
	end := time.Now()
	if s.tr != nil {
		s.tr.endRequest(id, op.Kind, start, end)
	}
	if memo {
		// Read after the request, so the reading is not charged to its
		// latency; it is the next request's "before" too.
		n := s.tr.memoMisses()
		if n > s.memoSeen && op.Kind == opQuery && id != 0 {
			s.tr.markMiss(id)
		}
		s.memoSeen = n
	}
	if err != nil && s.err == nil {
		s.err = err
	}
	s.attempted++
	if !due.IsZero() {
		s.lag = append(s.lag, start.Sub(due))
	} else {
		due = start
	}
	lat := end.Sub(due)
	if err != nil || !wellFormed(op.Kind, status, body) {
		if s.failed++; s.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: failed %s %s: status %d, error %v: %.300s\n", op.Path, op.Body, status, err, body)
		}
		lat = failedLatency
	}
	s.lat[op.Kind] = append(s.lat[op.Kind], lat)
	s.queries += op.N
	if op.Kind == opWrite {
		s.writes++
	}
	return status, body
}

// waitUntil blocks until t. Timer wake-ups overshoot by up to a
// millisecond, so the last stretch spins, yielding the processor
// between checks.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// openLoop sends ops start, start+1, ... from senders goroutines, op
// start+i due at arrivals[i] after the phase starts, whatever happened
// to earlier ops; a request is timed from its due time, so a stall
// charges every request queued behind it.
func openLoop(h http.Handler, ops stream, start int, arrivals []time.Duration, senders int, tr *tracer) (*phase, error) {
	total := len(arrivals)
	var next atomic.Int64
	ss := make([]*sender, senders)
	var wg sync.WaitGroup
	t0 := time.Now().Add(time.Millisecond)
	for k := range ss {
		s := &sender{c: newClient(h), tr: tr}
		s.lag = make([]time.Duration, 0, total/senders+1)
		ss[k] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				op, err := ops(start + i)
				if err != nil {
					s.err = err
					return
				}
				due := t0.Add(arrivals[i])
				waitUntil(due)
				s.run(op, due)
			}
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(t0), next: start + total}
	for _, s := range ss {
		if s.err != nil {
			return nil, s.err
		}
		out.merge(&s.phase)
	}
	return out, nil
}

// closedLoop runs clients that each send their next op as soon as the
// previous one completes, for dur.
func closedLoop(h http.Handler, ops stream, start int, dur time.Duration, clients int) (*phase, error) {
	var next atomic.Int64
	ss := make([]*sender, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for k := range ss {
		s := &sender{c: newClient(h)}
		ss[k] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op, err := ops(start + int(next.Add(1)-1))
				if err != nil {
					s.err = err
					return
				}
				s.run(op, time.Time{})
			}
		}()
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(t0), next: start + int(next.Load())}
	for _, s := range ss {
		if s.err != nil {
			return nil, s.err
		}
		out.merge(&s.phase)
	}
	return out, nil
}

// rank returns the q-quantile (nearest rank) of xs; ok is false when
// xs is empty.
func rank[T cmp.Ordered](xs []T, q float64) (v T, ok bool) {
	if len(xs) == 0 {
		return v, false
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))], true
}

// quantile returns the q-quantile of latencies ds in milliseconds.
// Failed requests sort last.
func quantile(ds []time.Duration, q float64) float64 {
	d, ok := rank(ds, q)
	switch {
	case !ok:
		return math.NaN()
	case d == failedLatency:
		return math.Inf(1)
	}
	return float64(d) / 1e6
}

// throughput is the phase's completed, successful ops per
// second.
func throughput(p *phase) float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
