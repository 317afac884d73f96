package main

// workload.go defines the three caregiver workloads and the request
// stream each one sends. The stream is a pure function of (workload,
// seed): op i is derived from a splitmix64 state seeded by (seed, i),
// and writes draw (user, item) pairs from a seed-shuffled list, so the
// same seed yields byte-identical request bodies no matter how many
// senders pick ops or in which order.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"fairhealth/internal/dataset"
	"fairhealth/internal/httpapi"
	"fairhealth/internal/model"
)

// Backend kinds a workload runs against.
const (
	backendSystem     = "system"     // in-process fairhealth.System
	backendPersistent = "persistent" // fairhealth.NewPersistent, WAL in a work dir
	backendNetworked  = "networked"  // partition.Networked over loopback transport workers
)

// Spec is one workload: cohort shape, traffic mix and offered rate.
type Spec struct {
	Name    string
	Backend string
	// Cohort passed to dataset.Generate (Seed comes from --seed).
	Users, Items, RatingsPerUser int
	// Groups is the size of the fixed care-group pool; each group has
	// MinGroup..MaxGroup patients.
	Groups, MinGroup, MaxGroup int
	// Rate is the open-loop offered rate in ops/s: about a sixth of the
	// capacity_ops_s measured on the commit that introduced the
	// benchmark. At a third or a half, requests queued behind heavy
	// ones often enough that a slower stretch of a shared machine
	// doubled the median latency. The traced run sends at half of it
	// from one client.
	Rate float64
	// TailRate is the offered rate of the tail phase (see TailOp), kept
	// low enough that its single sender is busy a sixth of the time or
	// less.
	TailRate float64
	// WriteEvery makes op i a rating write when i%WriteEvery ==
	// WriteEvery-1 (0: no writes in the main stream).
	WriteEvery int
	// BatchEvery makes op i a :batch call of BatchSize queries when
	// i%BatchEvery == BatchEvery-1 (0: no batches in the main stream).
	BatchEvery, BatchSize int
	// Scorers are cycled over queries; ItemCFEvery, when set, replaces
	// the scorer by item-cf on 1 query in ItemCFEvery.
	Scorers     []string
	ItemCFEvery int
	// BruteEvery sends 1 single query in BruteEvery as brute force with
	// BruteM candidates (0: greedy only).
	BruteEvery, BruteM int
	// RecentBias is the share of queries aimed at a group holding a
	// recently written member.
	RecentBias float64
}

// specs lists the workloads by name. fanout-net is clinic-warm with a
// different backend: same cohort, pool, rate and request stream.
var specs = map[string]Spec{
	"clinic-warm": {
		Name: "clinic-warm", Backend: backendSystem,
		Users: 400, Items: 600, RatingsPerUser: 40,
		Groups: 256, MinGroup: 3, MaxGroup: 6,
		Rate: 120, TailRate: 1000,
		BatchEvery: 10, BatchSize: 8,
		Scorers:    []string{"user-cf", "item-cf", "profile"},
		BruteEvery: 8, BruteM: 12,
	},
	"ward-churn": {
		Name: "ward-churn", Backend: backendPersistent,
		Users: 200, Items: 300, RatingsPerUser: 30,
		Groups: 64, MinGroup: 3, MaxGroup: 6,
		Rate: 40, TailRate: 25,
		WriteEvery: 4,
		BatchSize:  8,
		Scorers:    []string{"user-cf", "profile"}, ItemCFEvery: 10,
		RecentBias: 0.5,
	},
}

func init() {
	fan := specs["clinic-warm"]
	fan.Name, fan.Backend, fan.Rate, fan.TailRate = "fanout-net", backendNetworked, 50, 120
	specs["fanout-net"] = fan
}

// Op kinds.
const (
	opQuery = iota
	opBatch
	opWrite
)

// Op is one pre-encoded /v1 request.
type Op struct {
	Kind int
	Path string
	Body []byte
	// N is the number of queries the op carries (1 for a single query,
	// BatchSize for a batch, 0 for a write).
	N int
}

// pair is one (user, item) write target, as indices into the cohort.
type pair struct{ user, item int32 }

// Generator produces a workload's request stream for one seed.
type Generator struct {
	spec  Spec
	seed  uint64
	users []model.UserID
	items []model.ItemID
	// pool is the fixed care-group pool; byMember lists, per user
	// index, the pool groups holding that user.
	pool     [][]string
	byMember map[int32][]int
	// writes are the unrated (pool member, item) pairs in seed-shuffled
	// order; write ordinal k targets writes[k], so no pair is written
	// twice in one run.
	writes []pair
}

// NewGenerator builds the care-group pool and write targets for spec
// from the generated cohort ds.
func NewGenerator(spec Spec, seed int64, ds *dataset.Dataset) *Generator {
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	g := &Generator{spec: spec, seed: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64(), byMember: make(map[int32][]int)}
	if spec.Name == "fanout-net" {
		// Same stream as clinic-warm: only the backend differs.
		h = fnv.New64a()
		h.Write([]byte("clinic-warm"))
		g.seed = uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()
	}
	g.users = ds.Profiles.IDs()
	sort.Slice(g.users, func(a, b int) bool { return g.users[a] < g.users[b] })
	for _, d := range ds.Documents {
		g.items = append(g.items, d.ID)
	}
	byCluster := make(map[int][]int32)
	for k, u := range g.users {
		c := ds.ClusterOf[u]
		byCluster[c] = append(byCluster[c], int32(k))
	}
	rng := newRNG(g.seed, 1<<62)
	seen := make(map[string]bool)
	members := make(map[int32]bool)
	for len(g.pool) < spec.Groups {
		n := spec.MinGroup + int(rng.next()%uint64(spec.MaxGroup-spec.MinGroup+1))
		var cand []int32
		if rng.next()%4 == 0 {
			// A mixed ward: members drawn from the whole cohort.
			for len(cand) < n {
				cand = appendUnique(cand, int32(rng.next()%uint64(len(g.users))))
			}
		} else {
			// A specialty ward: members from one latent cluster.
			c := byCluster[int(rng.next()%uint64(len(byCluster)))]
			for len(cand) < n {
				cand = appendUnique(cand, c[rng.next()%uint64(len(c))])
			}
		}
		ids := make([]string, len(cand))
		for k, u := range cand {
			ids[k] = string(g.users[u])
		}
		key := fmt.Sprint(ids)
		if seen[key] {
			continue
		}
		seen[key] = true
		for _, u := range cand {
			members[u] = true
			g.byMember[u] = append(g.byMember[u], len(g.pool))
		}
		g.pool = append(g.pool, ids)
	}
	for u := int32(0); int(u) < len(g.users); u++ {
		if !members[u] {
			continue
		}
		for it := int32(0); int(it) < len(g.items); it++ {
			if !ds.Ratings.HasRated(g.users[u], g.items[it]) {
				g.writes = append(g.writes, pair{u, it})
			}
		}
	}
	for k := len(g.writes) - 1; k > 0; k-- {
		j := int(rng.next() % uint64(k+1))
		g.writes[k], g.writes[j] = g.writes[j], g.writes[k]
	}
	return g
}

func appendUnique(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed, i uint64) *rng {
	r := &rng{s: seed ^ (i+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Arrivals returns the due times, as offsets from the phase start, of
// a Poisson arrival process at rate ops/s over dur: independent
// caregivers, so gaps are exponential. phase tags the schedule so each
// phase of a run gets its own, all a pure function of the seed.
func (g *Generator) Arrivals(phase string, rate float64, dur time.Duration) []time.Duration {
	h := fnv.New64a()
	h.Write([]byte(phase))
	r := newRNG(g.seed^h.Sum64(), 1<<61)
	var out []time.Duration
	for at := 0.0; ; {
		at += -math.Log(1-r.float()) / rate
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// Op returns op i of the main stream.
func (g *Generator) Op(i int) (Op, error) {
	s := g.spec
	if s.WriteEvery > 0 && i%s.WriteEvery == s.WriteEvery-1 {
		return g.write(i / s.WriteEvery)
	}
	r := newRNG(g.seed, uint64(i))
	if s.BatchEvery > 0 && i%s.BatchEvery == s.BatchEvery-1 {
		return g.batch(r, i)
	}
	return g.single(r, i)
}

// TailOp returns op j of the tail phase, which exercises the op kind
// the main stream lacks: rating writes where the main stream is
// read-only, :batch calls where it has none.
func (g *Generator) TailOp(j int) (Op, error) {
	if g.spec.WriteEvery == 0 {
		return g.write(j)
	}
	return g.batch(newRNG(g.seed^0x5bd1e995, uint64(j)), j)
}

func (g *Generator) write(k int) (Op, error) {
	if k >= len(g.writes) {
		return Op{}, fmt.Errorf("write stream exhausted after %d distinct (user, item) pairs", len(g.writes))
	}
	p := g.writes[k]
	r := newRNG(g.seed^0x2545f491, uint64(k))
	body, err := json.Marshal(httpapi.RatingBody{
		User:  string(g.users[p.user]),
		Item:  string(g.items[p.item]),
		Value: 1 + float64(r.next()%9)/2,
	})
	return Op{Kind: opWrite, Path: "/v1/ratings", Body: body}, err
}

func (g *Generator) batch(r *rng, i int) (Op, error) {
	qs := make([]httpapi.GroupQueryBody, g.spec.BatchSize)
	for k := range qs {
		qs[k] = g.query(r, i*g.spec.BatchSize+k)
	}
	body, err := json.Marshal(httpapi.BatchGroupsBody{Queries: qs})
	return Op{Kind: opBatch, Path: "/v1/groups/recommend:batch", Body: body, N: len(qs)}, err
}

func (g *Generator) single(r *rng, i int) (Op, error) {
	body, err := json.Marshal(g.query(r, i))
	return Op{Kind: opQuery, Path: "/v1/groups/recommend", Body: body, N: 1}, err
}

// query draws one group query; c is the cycle position that rotates
// scorer and aggregation.
func (g *Generator) query(r *rng, c int) httpapi.GroupQueryBody {
	s := g.spec
	grp := int(r.next() % uint64(len(g.pool)))
	if s.WriteEvery > 0 && r.float() < s.RecentBias {
		// Aim at a group holding one of the last few written members.
		if k := c/s.WriteEvery - 1 - int(r.next()%4); k >= 0 && k < len(g.writes) {
			if gs := g.byMember[g.writes[k].user]; len(gs) > 0 {
				grp = gs[r.next()%uint64(len(gs))]
			}
		}
	}
	q := httpapi.GroupQueryBody{
		Members:     g.pool[grp],
		Z:           5 + 5*int(r.next()%2),
		Scorer:      s.Scorers[c%len(s.Scorers)],
		Aggregation: []string{"avg", "min"}[(c/len(s.Scorers))%2],
	}
	if s.ItemCFEvery > 0 && r.next()%uint64(s.ItemCFEvery) == 0 {
		q.Scorer = "item-cf"
	}
	if s.BruteEvery > 0 && r.next()%uint64(s.BruteEvery) == 0 {
		q.Method, q.Z, q.BruteM = "brute", 5, s.BruteM
	}
	return q
}

// WarmQueries lists one query per group-memo key the stream can use
// (group × scorer × aggregation), so a warm pass leaves every key hot.
// A networked backend keeps no group memo, so there one aggregation
// per (group, scorer) warms the workers' caches.
func (g *Generator) WarmQueries() []httpapi.GroupQueryBody {
	scorers := append([]string(nil), g.spec.Scorers...)
	if g.spec.ItemCFEvery > 0 {
		scorers = append(scorers, "item-cf")
	}
	aggs := []string{"avg", "min"}
	if g.spec.Backend == backendNetworked {
		aggs = aggs[:1]
	}
	var out []httpapi.GroupQueryBody
	for _, members := range g.pool {
		for _, sc := range scorers {
			for _, ag := range aggs {
				out = append(out, httpapi.GroupQueryBody{Members: members, Scorer: sc, Aggregation: ag})
			}
		}
	}
	return out
}

// ProbeQueries is the answer-check probe set: the first groups of the
// pool × every scorer, with explain.
func (g *Generator) ProbeQueries() []httpapi.GroupQueryBody {
	var out []httpapi.GroupQueryBody
	for k, members := range g.pool[:min(64, len(g.pool))] {
		for _, sc := range []string{"user-cf", "item-cf", "profile"} {
			out = append(out, httpapi.GroupQueryBody{
				Members: members, Z: 5, Scorer: sc,
				Aggregation: []string{"avg", "min"}[k%2], Explain: true,
			})
		}
	}
	return out
}
