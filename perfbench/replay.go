package main

// replay.go re-runs a served query stage by stage through public
// functions, in pipeline order: normalize → member check → peer search
// (user-cf) → per-member relevance → aggregate → personal lists →
// solve. Each stage is a span, so the traced run can split a serve's
// time by layer, and the replay's solver output is checked against the
// answer the backend served.

import (
	"context"
	"fmt"
	"math"
	"time"

	"fairhealth"
	"fairhealth/internal/core"
	"fairhealth/internal/group"
	"fairhealth/internal/model"
	"fairhealth/internal/scoring"
)

// replayed is one replay's outcome.
type replayed struct {
	scorer   string
	method   fairhealth.Method
	stages   map[string]time.Duration
	cands    int   // candidate items before any brute-force cut
	combos   int64 // subsets scored (brute force)
	items    []model.ItemID
	scores   []float64
	fairness float64
}

// owner returns the System that computes user's relevance: the backend
// itself, or the worker the ring assigns the user to.
func (t *target) owner(user string) *fairhealth.System {
	if t.net != nil {
		return t.workerOf[t.net.Owner(user)]
	}
	return t.state
}

// replay runs q's pipeline stage by stage, recording each stage as a
// span under a "replay" root.
func (t *target) replay(q fairhealth.GroupQuery, tr *tracer) (replayed, error) {
	out := replayed{stages: make(map[string]time.Duration)}
	root := tr.ids.Add(1)
	req := tr.req.Add(1)
	rootStart := time.Now()
	stage := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		out.stages[name] += end.Sub(start)
		tr.record(span{Name: "replay." + name, Req: req, ID: tr.ids.Add(1), Parent: root, Start: tr.ns(start), End: tr.ns(end)})
		return err
	}
	defer func() {
		tr.record(span{Name: "replay", Req: req, ID: root, Start: tr.ns(rootStart), End: tr.ns(time.Now())})
	}()

	var nq fairhealth.GroupQuery
	if err := stage("normalize", func() (err error) {
		nq, err = q.Normalized(t.state.Config())
		return err
	}); err != nil {
		return out, err
	}
	out.scorer, out.method = nq.Scorer, nq.Method
	var g model.Group
	if err := stage("member_check", func() error {
		for _, u := range nq.Members {
			g = append(g, model.UserID(u))
		}
		g = g.Dedup()
		for _, u := range g {
			if !t.owner(string(u)).KnownUser(string(u)) {
				return fmt.Errorf("%w: %s", fairhealth.ErrUnknownPatient, u)
			}
		}
		return nil
	}); err != nil {
		return out, err
	}
	if nq.Scorer == scoring.NameUserCF {
		// Peer search first, so relevance below is split from it.
		if err := stage("peers", func() error {
			for _, u := range g {
				if _, err := t.owner(string(u)).Peers(string(u)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return out, err
		}
	}
	maps := make([]map[model.ItemID]float64, len(g))
	if err := stage("relevances", func() (err error) {
		for k, u := range g {
			if maps[k], err = t.owner(string(u)).MemberRelevances(nq.Scorer, string(u), nq.Approx); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return out, err
	}
	var in core.Input
	var perUser map[model.UserID]map[model.ItemID]float64
	if err := stage("aggregate", func() error {
		aggr, err := group.ParseAggregator(nq.Aggregation)
		if err != nil {
			return err
		}
		cands := scoring.Combine(g, maps)
		groupRel := make(map[model.ItemID]float64, len(cands.Items))
		for item, scores := range cands.Items {
			groupRel[item] = aggr.Aggregate(scores)
		}
		perUser = cands.PerUser
		in = core.Input{Group: g, GroupRel: groupRel, Rel: func(u model.UserID, i model.ItemID) (float64, bool) {
			sc, ok := perUser[u][i]
			return sc, ok
		}}
		return nil
	}); err != nil {
		return out, err
	}
	out.cands = len(in.GroupRel)
	if err := stage("lists", func() error {
		in.Lists = core.ListsFromRelevances(perUser, nq.K)
		return nil
	}); err != nil {
		return out, err
	}
	var res core.Result
	solve := "greedy"
	if nq.Method == fairhealth.MethodBrute {
		solve = "brute"
	}
	if err := stage(solve, func() (err error) {
		if nq.Method == fairhealth.MethodBrute {
			if nq.BruteM > 0 {
				in.GroupRel = core.TopCandidates(in.GroupRel, nq.BruteM)
			}
			res, err = core.BruteForce(in, nq.Z, nq.BruteMaxCombos)
			return err
		}
		res, err = core.GreedyContext(context.Background(), in, nq.Z)
		return err
	}); err != nil {
		return out, err
	}
	out.combos, out.items, out.fairness = res.Combinations, res.Items, res.Fairness
	for _, it := range res.Items {
		out.scores = append(out.scores, in.GroupRel[it])
	}
	return out, nil
}

// matches reports whether the replay selected exactly the served items,
// with the same scores and fairness as float64 bits.
func (r replayed) matches(items []fairhealth.Recommendation, fairness float64) bool {
	if len(items) != len(r.items) || math.Float64bits(fairness) != math.Float64bits(r.fairness) {
		return false
	}
	for k, it := range items {
		if it.Item != string(r.items[k]) || math.Float64bits(it.Score) != math.Float64bits(r.scores[k]) {
			return false
		}
	}
	return true
}
