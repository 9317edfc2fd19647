package partition

import (
	"math/rand"
	"testing"
)

// TestArenaEquivalence is the memory-discipline contract: partitioning into
// a dirty, reused arena must produce byte-identical results to a fresh
// Partition call, for every algorithm, across adversarial task-set shapes
// and varying processor counts (so arena buffers shrink and grow between
// calls). One arena is shared by all algorithms and all trials — maximal
// staleness.
func TestArenaEquivalence(t *testing.T) {
	algos := []ArenaPartitioner{
		NewRMTS(nil),
		&RMTS{Surcharge: 2},
		RMTSLight{},
		RMTSLight{Surcharge: 1},
		SPA1{},
		SPA2{},
		EDFTS{},
		FirstFitRTA{},
		WorstFitRTA{},
		WorstFitRTA{Order: IncreasingPriority},
		FirstFit{Admission: AdmitRTA},
		FirstFit{Admission: AdmitHyperbolic},
		EDFFirstFit{},
		EDFWorstFit{},
	}
	ar := new(Arena)
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		ts := fuzzSet(r)
		m := 1 + r.Intn(6)
		for _, alg := range algos {
			fresh := resultFingerprint(alg.Partition(ts, m))
			reused := resultFingerprint(alg.PartitionArena(ts, m, ar))
			if fresh != reused {
				t.Fatalf("trial %d: %s diverged between fresh and arena-backed runs on %v (m=%d)\n--- fresh ---\n%s--- arena ---\n%s",
					trial, alg.Name(), ts, m, fresh, reused)
			}
			// The packers read the arena's utilization cache; it must be
			// bit-identical to a fresh in-order sum of every processor.
			for q := range ar.asg.Procs {
				if got, want := ar.util[q], ar.asg.Utilization(q); got != want {
					t.Fatalf("trial %d: %s: cached utilization of processor %d is %v, fresh sum %v",
						trial, alg.Name(), q, got, want)
				}
			}
		}
	}
}

// TestArenaInputNotRetained pins the ownership rule that PartitionArena
// never modifies or aliases its input set.
func TestArenaInputNotRetained(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	ar := new(Arena)
	ts := fuzzSet(r)
	before := ts.Clone()
	res := RMTSLight{}.PartitionArena(ts, 3, ar)
	if res.Assignment != nil && len(res.Assignment.Set) > 0 && &res.Assignment.Set[0] == &ts[0] {
		t.Fatalf("arena result aliases the input set")
	}
	for i := range ts {
		if ts[i] != before[i] {
			t.Fatalf("input set modified at %d: %v != %v", i, ts[i], before[i])
		}
	}
}
