package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Breakdown (E6) measures breakdown utilization: for each random task-set
// *shape* (fixed utilization proportions and periods), the largest U_M at
// which the algorithm still accepts, found by bisection on a global
// execution-time scale factor. The paper's motivation (§I): on
// uniprocessors, exact-analysis RMS breaks down around 88% on average
// versus the 69% worst-case bound; RM-TS inherits that gap on
// multiprocessors, while SPA2's breakdown pins at the bound.
func Breakdown(cfg Config) ([]Table, error) {
	r := rand.New(xrand.New(cfg.Seed ^ 0xE6))
	ms := []int{4, 8, 16}
	sets := cfg.setsPerPoint() / 2
	if sets < 8 {
		sets = 8
	}
	if cfg.Quick {
		ms = []int{4}
		if sets > 20 {
			sets = 20
		}
	}
	algos := []algoSpec{
		{"RM-TS", partition.NewRMTS(nil)},
		{"RM-TS/light", partition.RMTSLight{}},
		{"SPA2", partition.SPA2{}},
		{"P-RM-FF", partition.FirstFitRTA{}},
	}
	t := Table{
		ID:     "breakdown",
		Title:  fmt.Sprintf("mean breakdown U_M over %d set shapes (U_i∈[0.05,0.4] at full scale)", sets),
		Header: []string{"M", "algorithm", "breakdown U_M mean (min–max)"},
		Notes: []string{
			"bisection on a global C scale factor, 12 iterations, acceptance = OK ∧ Guaranteed",
			"expected: RM-TS ≫ Θ≈0.70 (uniprocessor analogy: ≈88%); SPA2 pinned at ≈Θ",
		},
	}
	mt := cfg.meter("breakdown", len(ms))
	for _, m := range ms {
		m := m
		perSet := make([][]float64, sets)
		errs := make([]error, sets)
		parErr := cfg.parEach(r.Int63(), sets, func(s int, r *rand.Rand, ws *Workspace) {
			shape, err := gen.TaskSetInto(r, gen.Config{
				TargetU: float64(m), // full scale = U_M 1.0
				UMin:    0.05, UMax: 0.40,
			}, ws.Gen())
			if err != nil {
				errs[s] = err
				return
			}
			perSet[s] = breakdownRow(ws, algos, shape, m)
		})
		if parErr != nil {
			return nil, fmt.Errorf("breakdown: %w", parErr)
		}
		if err := firstError(errs); err != nil {
			return nil, fmt.Errorf("breakdown: %w", err)
		}
		for i, a := range algos {
			samples := make([]float64, 0, sets)
			for _, row := range perSet {
				if row != nil {
					samples = append(samples, row[i])
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m), a.name, meanAndRange(samples),
			})
		}
		mt.Tick("M=%d", m)
	}
	return []Table{t}, nil
}

// breakdownRow returns the breakdown U_M of shape under each of algos, in
// order. The shape's bisections share one record of RM-TS's verdicts on
// the scaled sets it pre-assigned nothing in (see breakdownOf).
func breakdownRow(ws *Workspace, algos []algoSpec, shape task.Set, m int) []float64 {
	if ws != nil {
		ws.noPre.reset()
	}
	row := make([]float64, len(algos))
	for i, a := range algos {
		row[i] = breakdownOf(ws, a.alg, shape, m)
	}
	return row
}

// breakdownOf bisects the largest scale λ ∈ (0, 1] at which alg accepts the
// scaled shape (C_i ← max(1, round(λ·C_i))) and returns the achieved U_M.
// Acceptance is not perfectly monotone in λ because of integer rounding and
// packing heuristics, so the bisection brackets the last accepted scale and
// the achieved utilization is recomputed from the accepted integer set.
//
// Cross-scale reuse: integer rounding makes nearby λ probes collide on the
// exact same scaled C-vector, and the partitioners are deterministic
// functions of (set, m), so identical vectors have identical verdicts. The
// ≤13 probes of one bisection are memoized on the exact C-vector (the memo
// is per-(shape, alg) call, so algorithm and m never mix); a hit skips the
// whole partitioning run.
//
// Cross-algorithm reuse: RM-TS on a set it pre-assigns nothing in runs
// RM-TS/light's packing loop on the same sorted set, after the same input
// and surcharge checks, so the two return the same verdict. RM-TS's
// bisection records every scaled C-vector it partitioned with
// NumPreAssigned == 0, and RM-TS/light's bisection of the same shape and m
// answers a probe that misses its own memo from that record before
// partitioning, memoizing the answer as its own. Both sides must run with
// zero surcharge. The key is the exact C-vector, so no monotonicity in λ
// is assumed.
//
// Both reuses are disabled by Config.NoCrossScale.
func breakdownOf(ws *Workspace, alg partition.Algorithm, shape task.Set, m int) float64 {
	n := len(shape)
	scaled := make(task.Set, n)
	memo := ws != nil && !ws.noCrossScale
	var record, reuse bool
	if memo {
		ws.memo.reset()
		switch a := alg.(type) {
		case *partition.RMTS:
			record = a.Surcharge == 0
		case partition.RMTSLight:
			reuse = a.Surcharge == 0
		}
	}
	accepts := func(lambda float64) (bool, float64) {
		for i, tk := range shape {
			c := task.Time(float64(tk.C)*lambda + 0.5)
			if c < 1 {
				c = 1
			}
			if c > tk.T {
				c = tk.T
			}
			scaled[i] = task.Task{Name: tk.Name, C: c, T: tk.T}
		}
		if memo {
			if v, hit := ws.memo.find(scaled); hit {
				if obs.On() {
					cCrossScaleMemoHits.Inc()
				}
				return v.ok, v.u
			}
		}
		var v verdict
		reused := false
		if reuse {
			v, reused = ws.noPre.find(scaled)
		}
		if reused {
			if obs.On() {
				cBreakdownReused.Inc()
			}
		} else {
			res := ws.Partition(alg, scaled, m)
			v = verdict{ok: res.OK && res.Guaranteed, u: scaled.NormalizedUtilization(m)}
			if record && res.NumPreAssigned == 0 {
				ws.noPre.add(scaled, v)
			}
		}
		if memo {
			ws.memo.add(scaled, v)
		}
		return v.ok, v.u
	}
	lo, hi := 0.0, 1.0
	best := 0.0
	if ok, u := accepts(1.0); ok {
		return u
	}
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		if ok, u := accepts(mid); ok {
			lo = mid
			if u > best {
				best = u
			}
		} else {
			hi = mid
		}
	}
	return best
}
