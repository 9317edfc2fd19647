package admit

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/task"
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// randomTask draws a task with utilization in [uMin, uMax) and a period in
// [10, 1000); one in three gets a constrained deadline.
func randomTask(r *rand.Rand, uMin, uMax float64) task.Task {
	T := task.Time(10 + r.Intn(990))
	C := task.Time((uMin + r.Float64()*(uMax-uMin)) * float64(T))
	if C < 1 {
		C = 1
	}
	tk := task.Task{C: C, T: T}
	if r.Intn(3) == 0 {
		tk.D = C + task.Time(r.Intn(int(T-C)+1))
	}
	return tk
}

// saturate admits random tasks until the cluster has rejected an analyzed
// question (one that carries evidence) and returns that task.
func saturate(tb testing.TB, c *Cluster, r *rand.Rand, uMin, uMax float64) task.Task {
	tb.Helper()
	for i := 0; i < 100_000; i++ {
		tk := randomTask(r, uMin, uMax)
		if res := admitNow(tb, c, tk); !res.Accepted && res.Evidence != nil {
			return tk
		}
	}
	tb.Fatal("cluster never produced an analyzed rejection")
	return task.Task{}
}

// TestRejectionDeterministic: with no memo, every rejection is recomputed,
// so the same rejected question asked twice against an unchanged cluster
// must answer byte-identical JSON, evidence included.
func TestRejectionDeterministic(t *testing.T) {
	for _, policy := range partition.OnlinePolicies() {
		t.Run(policy, func(t *testing.T) {
			c, err := NewService(1).Create(context.Background(), "det", 32, policy, 1)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(5))
			tk := saturate(t, c, r, 0.05, 0.35)
			first, err := json.Marshal(admitNow(t, c, tk))
			if err != nil {
				t.Fatal(err)
			}
			second, err := json.Marshal(admitNow(t, c, tk))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("repeated rejection diverged:\nfirst  %s\nsecond %s", first, second)
			}
			if !bytes.Contains(first, []byte(`"evidence":[`)) {
				t.Fatalf("rejection carries no evidence: %s", first)
			}
		})
	}
}

// probeRTAPerResident is the evidence construction ProbeRTA replaced: a
// fresh interference set copied for the load and for every resident below
// it. It is the oracle for the shared-mirror probe.
func probeRTAPerResident(list []task.Subtask, prio int, c, t, d task.Time) *explain.ProcEvidence {
	ev := &explain.ProcEvidence{}
	pos := 0
	for pos < len(list) && list[pos].TaskIndex <= prio {
		pos++
	}
	hp := make([]rta.Interference, pos)
	for j := 0; j < pos; j++ {
		hp[j] = rta.Interference{C: list[j].C, T: list[j].T}
	}
	r, v := rta.ResponseTimeVerdict(c, hp, d)
	ev.OwnResponse = r
	ev.OwnVerdict = v.String()
	for i := pos; i < len(list); i++ {
		ihp := make([]rta.Interference, i)
		for j := 0; j < i; j++ {
			ihp[j] = rta.Interference{C: list[j].C, T: list[j].T}
		}
		rr, rv := rta.ResponseTimeExtraVerdict(list[i].C, ihp, c, t, list[i].Deadline)
		if rv != rta.VerdictFits {
			ev.Blocked = &explain.BlockedResident{
				Task: list[i].TaskIndex, Part: list[i].Part,
				C: list[i].C, Deadline: list[i].Deadline,
				Response: rr, Verdict: rv.String(),
			}
			break
		}
	}
	return ev
}

// oracleEvidence rebuilds a rejection's evidence the way the service did
// before slabs and reused buffers: a copied resident list and a separately
// allocated record per processor.
func oracleEvidence(c *Cluster, cause string, tk task.Task) []ProcEvidence {
	s := c.eng.Surcharge()
	d := tk.Deadline()
	out := make([]ProcEvidence, c.eng.M())
	for q := range out {
		res := c.eng.Residents(q)
		pe := ProcEvidence{Proc: q, Utilization: c.eng.Utilization(q), Residents: len(res)}
		if cause == partition.CauseThresholdExhausted.String() {
			u := 0.0
			for _, sub := range res {
				u += float64(sub.C+s) / float64(sub.T)
			}
			ev := explain.ProbeThreshold(u, bounds.LL(len(res)+1))
			pe.Detail = &ev
		} else {
			for i := range res {
				res[i].C += s
			}
			pe.Detail = probeRTAPerResident(res, int(d), tk.C+s, tk.T, d)
		}
		out[q] = pe
	}
	return out
}

// TestEvidenceMatchesPerResidentOracle is the differential guard on the
// rejection evidence bytes: on random churned clusters every analyzed
// rejection must marshal exactly as the per-resident-copy construction
// would have built it. The dense case puts more residents on a processor
// than ProbeRTA mirrors on its stack.
func TestEvidenceMatchesPerResidentOracle(t *testing.T) {
	cases := []struct {
		name       string
		policy     string
		m          int
		surcharge  task.Time
		uMin, uMax float64
		ops        int
	}{
		{"rta-ff", partition.OnlineRTAFirstFit, 32, 0, 0.05, 0.35, 1500},
		{"rta-wf", partition.OnlineRTAWorstFit, 32, 0, 0.05, 0.35, 1500},
		{"rta-ff-surcharge", partition.OnlineRTAFirstFit, 32, 2, 0.05, 0.35, 1500},
		{"rta-wf-surcharge", partition.OnlineRTAWorstFit, 32, 2, 0.05, 0.35, 1500},
		{"threshold", partition.OnlineThreshold, 32, 1, 0.05, 0.35, 1500},
		{"rta-ff-dense", partition.OnlineRTAFirstFit, 2, 0, 0.001, 0.01, 600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewService(1).Create(context.Background(), "diff", tc.m, tc.policy, tc.surcharge)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			var live []uint64
			compared, blocked, maxRes := 0, 0, 0
			for op := 0; op < tc.ops; op++ {
				if len(live) > 0 && r.Intn(4) == 0 {
					k := r.Intn(len(live))
					removeNow(t, c, live[k])
					live = append(live[:k], live[k+1:]...)
					continue
				}
				tk := randomTask(r, tc.uMin, tc.uMax)
				res := admitNow(t, c, tk)
				if res.Accepted {
					live = append(live, res.Handle)
					continue
				}
				if res.Evidence == nil {
					continue
				}
				want := res
				want.Evidence = oracleEvidence(c, res.Cause, tk)
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantJSON) {
					t.Fatalf("op %d task %v: evidence diverged from the per-resident oracle:\ngot  %s\nwant %s", op, tk, got, wantJSON)
				}
				compared++
				for _, pe := range res.Evidence {
					if pe.Detail.Blocked != nil {
						blocked++
					}
					maxRes = max(maxRes, pe.Residents)
				}
			}
			if compared < 20 {
				t.Fatalf("only %d analyzed rejections compared; the run proved little", compared)
			}
			if tc.policy != partition.OnlineThreshold && blocked == 0 {
				t.Error("no processor ever reported a blocked resident; the scan went unchecked")
			}
			if tc.name == "rta-ff-dense" && maxRes <= 64 {
				t.Errorf("dense case peaked at %d residents per processor; want more than ProbeRTA's stack mirror", maxRes)
			}
		})
	}
}

// TestAllocGuardAdmitRejection pins the cost of an analyzed rejection with
// full evidence: a fixed handful of allocations (the engine's typed
// rejection and its formatted reason, then the three evidence slabs),
// identical for M=4 and M=32 and for every residency up to ProbeRTA's
// stack mirror.
func TestAllocGuardAdmitRejection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	const bound = 10
	var perM []float64
	for _, m := range []int{4, 32} {
		c, err := NewService(1).Create(context.Background(), "guard", m, partition.OnlineRTAFirstFit, 1)
		if err != nil {
			t.Fatal(err)
		}
		tk := saturate(t, c, rand.New(rand.NewSource(int64(m))), 0.05, 0.35)
		res := admitNow(t, c, tk)
		if res.Cause != partition.CauseRTADeadlineMiss.String() || len(res.Evidence) != m {
			t.Fatalf("M=%d: rejection %s with %d evidence rows, want %s with %d", m, res.Cause, len(res.Evidence), partition.CauseRTADeadlineMiss, m)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if res, err := c.Admit(context.Background(), tk); err != nil || res.Accepted {
				t.Fatalf("repeat admit: %+v, %v", res, err)
			}
		})
		if allocs > bound {
			t.Errorf("M=%d: analyzed rejection costs %.1f allocs, want ≤ %d", m, allocs, bound)
		}
		perM = append(perM, allocs)
	}
	if perM[0] != perM[1] {
		t.Errorf("rejection allocations grow with M: %.1f at M=4, %.1f at M=32", perM[0], perM[1])
	}
}
