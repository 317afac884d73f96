package main

// check.go is the answer check. After a run, a fresh single System is
// rebuilt cold from the backend's final ratings and profiles, and every
// probe query (pool groups × scorers, with explain) must come back from
// the backend under test — through the HTTP handler — bit-identical to
// the cold System's answer: same items, same scores, fairness and value
// as float64 bits, same personal lists A_u. The reported fairness must
// also equal the share of members whose A_u meets the top-z. The probe
// answers give the quality metrics fairness_mean and worst_member_sat.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"fairhealth"
	"fairhealth/internal/httpapi"
)

// checked is the answer check's outcome.
type checked struct {
	probes     int
	mismatches []string
	// fairnessMean is the mean reported fairness over the probes;
	// worstSat the mean over probes of min over members of
	// |A_u ∩ D| / min(z, |A_u|).
	fairnessMean, worstSat float64
}

func answerCheck(t *target, gen *Generator) (checked, error) {
	var out checked
	cold, err := fairhealth.New(benchConfig)
	if err != nil {
		return out, err
	}
	defer cold.Close()
	for _, id := range t.backend.Patients() {
		p, err := t.backend.Patient(id)
		if err != nil {
			return out, err
		}
		if err := cold.AddPatient(p); err != nil {
			return out, err
		}
	}
	for _, tr := range t.state.RatingTriples() {
		if err := cold.AddRating(tr.User, tr.Item, tr.Value); err != nil {
			return out, err
		}
	}

	c := newClient(t.handler)
	var satSum float64
	satN := 0
	for _, pb := range gen.ProbeQueries() {
		body, err := json.Marshal(pb)
		if err != nil {
			return out, err
		}
		out.probes++
		bad := func(format string, args ...any) {
			out.mismatches = append(out.mismatches, fmt.Sprintf("%s %v: ", pb.Scorer, pb.Members)+fmt.Sprintf(format, args...))
		}
		status, raw, err := c.do("/v1/groups/recommend", body)
		if err != nil {
			return out, err
		}
		var got httpapi.GroupResponse
		if status != 200 {
			bad("status %d: %s", status, raw)
			continue
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			bad("decode: %v", err)
			continue
		}
		want, err := cold.Serve(context.Background(), fairhealth.GroupQuery{
			Members: pb.Members, Z: pb.Z, Scorer: pb.Scorer, Aggregation: pb.Aggregation, Explain: true,
		})
		if err != nil {
			return out, fmt.Errorf("cold probe: %w", err)
		}
		if !sameRecs(got.Items, want.Items) {
			bad("items %v, cold rebuild %v", got.Items, want.Items)
		}
		if !sameBits(got.Fairness, want.Fairness) || !sameBits(got.Value, want.Value) {
			bad("fairness/value %v/%v, cold rebuild %v/%v", got.Fairness, got.Value, want.Fairness, want.Value)
		}
		if len(got.PerMember) != len(want.PerMember) {
			bad("per_member has %d members, cold rebuild %d", len(got.PerMember), len(want.PerMember))
		}
		for u, list := range want.PerMember {
			if !sameRecs(got.PerMember[u], list) {
				bad("A_u of %s differs from the cold rebuild", u)
			}
		}

		// Def. 3 recomputed from the served evidence.
		top := make(map[string]bool, len(got.Items))
		for _, it := range got.Items {
			top[it.Item] = true
		}
		satisfied, worst, counted := 0, 1.0, false
		for _, u := range pb.Members {
			list := got.PerMember[u]
			hits := 0
			for _, it := range list {
				if top[it.Item] {
					hits++
				}
			}
			if hits > 0 {
				satisfied++
			}
			if len(list) > 0 {
				worst = math.Min(worst, float64(hits)/float64(min(pb.Z, len(list))))
				counted = true
			}
		}
		if f := float64(satisfied) / float64(len(pb.Members)); !sameBits(f, got.Fairness) {
			bad("fairness %v, recomputed from per_member %v", got.Fairness, f)
		}
		out.fairnessMean += got.Fairness
		if counted {
			satSum += worst
			satN++
		}
	}
	out.fairnessMean /= float64(out.probes)
	if satN > 0 {
		out.worstSat = satSum / float64(satN)
	}
	return out, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRecs(a, b []fairhealth.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Item != b[k].Item || !sameBits(a[k].Score, b[k].Score) {
			return false
		}
	}
	return true
}
