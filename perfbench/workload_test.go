package main

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"fairhealth/internal/dataset"
)

// streamOf generates a workload's cohort and request stream for seed
// from scratch, as a run does.
func streamOf(t *testing.T, name string, seed int64) *Generator {
	t.Helper()
	spec := specs[name]
	ds, err := dataset.Generate(dataset.Config{Seed: seed, Users: spec.Users, Items: spec.Items, RatingsPerUser: spec.RatingsPerUser})
	if err != nil {
		t.Fatal(err)
	}
	return NewGenerator(spec, seed, ds)
}

// TestStreamIsPureFunctionOfSeed pins what the open-loop generator
// promises: the same (workload, seed) gives byte-identical request
// bodies, whichever order ops are generated in, and another seed gives
// another stream.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	const n = 400
	for name := range specs {
		a, b, other := streamOf(t, name, 7), streamOf(t, name, 7), streamOf(t, name, 8)
		differs := false
		for i := 0; i < n; i++ {
			j := n - 1 - i // b generates in reverse order
			opA, err := a.Op(j)
			if err != nil {
				t.Fatal(err)
			}
			opB, err := b.Op(j)
			if err != nil {
				t.Fatal(err)
			}
			if opA.Path != opB.Path || !bytes.Equal(opA.Body, opB.Body) {
				t.Fatalf("%s op %d differs between two generators of seed 7:\n%s\n%s", name, j, opA.Body, opB.Body)
			}
			tailA, err := a.TailOp(i)
			if err != nil {
				t.Fatal(err)
			}
			tailB, err := b.TailOp(i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tailA.Body, tailB.Body) {
				t.Fatalf("%s tail op %d differs between two generators of seed 7", name, i)
			}
			opO, err := other.Op(j)
			if err != nil {
				t.Fatal(err)
			}
			differs = differs || !bytes.Equal(opA.Body, opO.Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same %d ops", name, n)
		}
		arrA := a.Arrivals("main", 300, 2*time.Second)
		if !slices.Equal(arrA, b.Arrivals("main", 300, 2*time.Second)) {
			t.Errorf("%s: arrival schedules of seed 7 differ", name)
		}
		if slices.Equal(arrA, other.Arrivals("main", 300, 2*time.Second)) {
			t.Errorf("%s: seeds 7 and 8 gave the same arrival schedule", name)
		}
		if len(arrA) < 500 || len(arrA) > 700 || !slices.IsSorted(arrA) {
			t.Errorf("%s: %d arrivals in 2s at 300/s, sorted %v", name, len(arrA), slices.IsSorted(arrA))
		}
	}
}

// TestFanoutSharesClinicStream pins that fanout-net differs from
// clinic-warm only in its backend.
func TestFanoutSharesClinicStream(t *testing.T) {
	a, b := streamOf(t, "clinic-warm", 3), streamOf(t, "fanout-net", 3)
	for i := 0; i < 200; i++ {
		opA, _ := a.Op(i)
		opB, _ := b.Op(i)
		if !bytes.Equal(opA.Body, opB.Body) {
			t.Fatalf("op %d differs", i)
		}
	}
}

// TestWritesAreDistinct pins that no (user, item) pair is written twice
// in one run.
func TestWritesAreDistinct(t *testing.T) {
	g := streamOf(t, "ward-churn", 5)
	seen := make(map[pair]bool)
	for _, p := range g.writes {
		if seen[p] {
			t.Fatalf("pair %v listed twice", p)
		}
		seen[p] = true
	}
	if len(g.writes) < 20000 {
		t.Fatalf("only %d write targets", len(g.writes))
	}
}
