package main

// traced.go is the traced run behind --trace 1. One client sends at
// half the workload's rate: first untraced (the reference for the
// tracing overhead and the runtime counters), then traced, then a stage
// replay of sampled queries, then the traced tail. Spans are written to
// <workdir>/traces at the end.

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"fairhealth"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/partition/transport"
)

// runtimeCounters are cumulative runtime/metrics readings.
type runtimeCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// transportStats reads the coordinator's wire counters (zero without
// one).
func (t *target) transportStats() transport.Snapshot {
	if t.net == nil {
		return transport.Snapshot{}
	}
	return t.net.TransportStats()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantileF is the q-quantile of xs (NaN when empty).
func quantileF(xs []float64, q float64) float64 {
	if v, ok := rank(xs, q); ok {
		return v
	}
	return math.NaN()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func runTraced(spec Spec, seed int64, dur time.Duration, workDir string) (*report, error) {
	rep := newReport()
	tr := newTracer()
	t, gen, err := setup(spec, seed, workDir, 0, tr)
	if err != nil {
		return nil, err
	}
	defer t.close()
	rate, tailRate := spec.Rate/2, spec.TailRate/2
	refDur, tracedDur, tailDur, replayDur := dur*3/10, dur*3/10, dur*2/10, dur*2/10
	ops, err := buffered(gen.Op, int(rate*(refDur+tracedDur+replayDur).Seconds()))
	if err != nil {
		return nil, err
	}
	tail, err := buffered(gen.TailOp, int(tailRate*tailDur.Seconds()))
	if err != nil {
		return nil, err
	}

	// Reference: untraced, one client.
	runtime.GC()
	rt0 := readRuntime()
	ref, err := openLoop(t.handler, ops, 0, gen.Arrivals("reference", rate, refDur), 1, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()

	// Traced: the same client and rate, spans on. Which serves missed
	// the group memo is read only where trace.coverage uses it (see
	// below): each reading walks the caches, between requests.
	var memoMisses func() uint64
	if t.net == nil {
		memoMisses = func() uint64 { return t.state.CacheStats().Groups.Misses }
	}
	runtime.GC()
	tr.on.Store(true)
	if spec.WriteEvery > 0 {
		tr.memoMisses = memoMisses
	}
	cs0, ts0, wal0 := t.cacheStats(), t.transportStats(), t.walBytes()
	traced, err := openLoop(t.handler, ops, ref.next, gen.Arrivals("traced", rate, tracedDur), 1, tr)
	if err != nil {
		return nil, err
	}
	cs1, ts1, wal1 := t.cacheStats(), t.transportStats(), t.walBytes()
	mainSpans := tr.index()
	tr.memoMisses = memoMisses
	// The replay runs before the tail, so on a read-only stream it sees
	// the caches the workload left, not the tail's write evictions.
	rp, err := stageReplay(rep, t, ops, traced.next, replayDur, tr)
	if err != nil {
		return nil, err
	}
	tr.memoMisses = nil
	cs2, wal2 := t.cacheStats(), t.walBytes()
	tailPh, err := openLoop(t.handler, tail, 0, gen.Arrivals("tail", tailRate, tailDur), 1, tr)
	if err != nil {
		return nil, err
	}
	cs3, wal3 := t.cacheStats(), t.walBytes()
	allSpans := tr.index()
	for _, p := range []*phase{ref, traced, tailPh} {
		rep.count(p)
	}

	// Handler, backend and worker spans.
	var httpSelf, remote, coordSelf []float64
	for _, s := range mainSpans.byName["httpapi.query"] {
		httpSelf = append(httpSelf, float64(mainSpans.self(s))/1e3)
	}
	for _, s := range mainSpans.byName["serve"] {
		if t.net == nil {
			break
		}
		sum := int64(0)
		for _, k := range mainSpans.children[s.ID] {
			sum += k.dur()
		}
		remote = append(remote, float64(sum)/1e3)
		coordSelf = append(coordSelf, float64(mainSpans.self(s))/1e3)
	}
	serve := mainSpans.durationsUS("serve")
	adds := allSpans.durationsUS("add_rating")
	rep.set("httpapi.self_us", "us", quantileF(httpSelf, 0.5))
	rep.set("serve.us.p50", "us", quantileF(serve, 0.5))
	rep.set("serve.us.p99", "us", quantileF(serve, 0.99))
	rep.set("serve_batch.us.p50", "us", quantileF(allSpans.durationsUS("serve_batch"), 0.5))
	rep.set("add_rating.us.p50", "us", quantileF(adds, 0.5))
	rep.set("add_rating.us.p99", "us", quantileF(adds, 0.99))
	rep.set("partition.remote_compute_us", "us", quantileF(remote, 0.5))
	rep.set("partition.coord_self_us", "us", quantileF(coordSelf, 0.5))
	rep.samples["serve.us"] = len(serve)
	rep.samples["add_rating.us"] = len(adds)

	// Counter deltas.
	hitRatio := func(a, b fairhealth.CacheCounters) float64 {
		return ratio(float64(b.Hits-a.Hits), float64(b.Hits-a.Hits+b.Misses-a.Misses))
	}
	rep.set("cache.groups.hit_ratio", "frac", hitRatio(cs0.Groups, cs1.Groups))
	rep.set("cache.peers.hit_ratio", "frac", hitRatio(cs0.Peers, cs1.Peers))
	rep.set("cache.similarity.hit_ratio", "frac", hitRatio(cs0.Similarity, cs1.Similarity))
	// Writes and their effects are counted over the traced phase and
	// the tail, leaving out the replay between them.
	writes := traced.writes + tailPh.writes
	evictions := func(a, b fairhealth.CacheStats) uint64 {
		return b.Groups.Evictions - a.Groups.Evictions + b.Peers.Evictions - a.Peers.Evictions +
			b.Similarity.Evictions - a.Similarity.Evictions
	}
	rep.set("cache.evictions_per_write", "count", ratio(float64(evictions(cs0, cs1)+evictions(cs2, cs3)), float64(writes)))
	rep.set("wal.bytes_per_write", "B", ratio(float64(wal1-wal0+wal3-wal2), float64(writes)))
	rep.set("simfn.pairs_per_serve", "count", ratio(float64(cs1.Similarity.Misses-cs0.Similarity.Misses), float64(traced.queries)))
	rep.set("transport.rpcs_per_serve", "count", ratio(float64(ts1.RPCs-ts0.RPCs), float64(traced.queries)))
	rep.set("transport.members_per_rpc", "count", ratio(float64(ts1.CoalescedMembers-ts0.CoalescedMembers), float64(ts1.RelevancesRPCs-ts0.RelevancesRPCs)))
	rep.set("transport.bytes_per_serve", "B", ratio(float64(ts1.BytesIn+ts1.BytesOut-ts0.BytesIn-ts0.BytesOut), float64(traced.queries)))
	rep.set("runtime.alloc_bytes_per_op", "B", ratio(rt1.allocBytes-rt0.allocBytes, float64(ref.attempted)))
	rep.set("runtime.gc_cpu_frac", "frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	rep.set("gen.lag_p99_ms", "ms", quantile(append(ref.lag, traced.lag...), 0.99))

	// trace.coverage: the replay's stages over the Serve they stand for,
	// both on group-memo misses. The replay runs before its own Serve,
	// so it pays the cache misses the stream left and that Serve does
	// not. On a stream with writes, the Serve spans compared are
	// therefore the traced phase's memo misses; a read-only stream
	// leaves the caches as they were, so there the replay phase's own
	// Serve spans see what the replay saw.
	missServes := rp.serves
	if spec.WriteEvery > 0 {
		missServes = nil
		for _, s := range mainSpans.byName["serve"] {
			if t.net != nil || s.Miss {
				missServes = append(missServes, float64(s.dur())/1e3)
			}
		}
	}
	rep.set("trace.coverage", "frac", ratio(mean(rp.stageSums), mean(missServes)))
	rep.samples["trace.coverage_serves"] = len(missServes)

	refP50, tracedP50 := quantile(ref.lat[opQuery], 0.5), quantile(traced.lat[opQuery], 0.5)
	rep.set("trace.overhead_ms", "ms", tracedP50-refP50)
	rep.samples["trace.query_p50"] = len(traced.lat[opQuery])

	if _, err := checkAnswers(rep, t, gen); err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", spec.Name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return rep, nil
}

// replayPhase is what the stage replay leaves for trace.coverage, in
// microseconds: each replay's summed stage spans, and the spans of the
// Serves after them that missed the group memo (every Serve, on a
// backend without a memo).
type replayPhase struct{ stageSums, serves []float64 }

// stageReplay replays stream queries one at a time from index start,
// each followed by the Serve of the same query, for dur, and checks
// that the replay selected what Serve answered. Replayed queries use
// the max aggregation, which the stream never sends, so the System's
// group memo misses while the caches upstream of it stay as the
// workload left them. Writes in the stream are sent as usual.
func stageReplay(rep *report, t *target, ops stream, start int, dur time.Duration, tr *tracer) (replayPhase, error) {
	var out replayPhase
	s := &sender{c: newClient(t.handler), tr: tr}
	stages := make(map[string][]float64)
	var cands, combos []float64
	deadline := time.Now().Add(dur)
	for i := start; time.Now().Before(deadline); i++ {
		op, err := ops(i)
		if err != nil {
			return out, err
		}
		if op.Kind == opBatch {
			continue
		}
		if op.Kind == opWrite {
			s.run(op, time.Time{})
			continue
		}
		var body httpapi.GroupQueryBody
		if err := json.Unmarshal(op.Body, &body); err != nil {
			return out, err
		}
		body.Aggregation = "max"
		if op.Body, err = json.Marshal(body); err != nil {
			return out, err
		}
		q := fairhealth.GroupQuery{Members: body.Members, Z: body.Z, Method: fairhealth.Method(body.Method),
			BruteM: body.BruteM, Aggregation: body.Aggregation, Scorer: body.Scorer}
		rp, err := t.replay(q, tr)
		if err != nil {
			return out, fmt.Errorf("replay: %w", err)
		}
		status, raw := s.run(op, time.Time{})
		var got httpapi.GroupResponse
		if status != 200 || json.Unmarshal(raw, &got) != nil {
			return out, fmt.Errorf("replay serve: status %d: %s", status, raw)
		}
		if !rp.matches(got.Items, got.Fairness) {
			rep.mismatch("replay of %s %v selected %v (fairness %v), serve answered %v (fairness %v)",
				q.Scorer, q.Members, rp.items, rp.fairness, got.Items, got.Fairness)
		}
		var sum time.Duration
		for name, d := range rp.stages {
			key := name
			if name == "relevances" {
				key = "relevances." + rp.scorer
			}
			stages[key] = append(stages[key], float64(d)/1e3)
			sum += d
		}
		out.stageSums = append(out.stageSums, float64(sum)/1e3)
		if t.net != nil || tr.lastMiss.Load() {
			out.serves = append(out.serves, float64(tr.last.Load())/1e3)
		}
		cands = append(cands, float64(rp.cands))
		if rp.method == fairhealth.MethodBrute {
			combos = append(combos, float64(rp.combos))
		}
	}
	p50 := func(key string) float64 { return quantileF(stages[key], 0.5) }
	rep.set("normalize.us", "us", p50("normalize"))
	rep.set("member_check.us", "us", p50("member_check"))
	rep.set("cf.peers_us", "us", p50("peers"))
	for _, sc := range []string{"user-cf", "profile", "item-cf"} {
		rep.set("scoring.relevances_us."+sc, "us", p50("relevances."+sc))
	}
	rep.set("group.aggregate_us", "us", p50("aggregate"))
	rep.set("core.lists_us", "us", p50("lists"))
	rep.set("core.greedy_us", "us", p50("greedy"))
	rep.set("core.brute_us", "us", p50("brute"))
	rep.set("core.candidates", "count", mean(cands))
	rep.set("core.brute_combinations", "count", mean(combos))
	rep.samples["replays"] = len(out.stageSums)
	rep.count(&s.phase)
	return out, nil
}
