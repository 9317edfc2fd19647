package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/xrand"
)

// sweepSpec is one run of the experiments CLI.
type sweepSpec struct {
	name  string // phase name
	key   string // experiments registry key
	sets  int    // -sets
	quick bool   // -quick (tests only)
}

func (s *sweepSpec) args(seed int64, workers int) []string {
	a := []string{"-run", s.key, "-sets", strconv.Itoa(s.sets), "-seed", strconv.FormatInt(seed, 10),
		"-workers", strconv.Itoa(workers), "-q"}
	if s.quick {
		a = append(a, "-quick")
	}
	return a
}

// sweepCounters are the analysis counters read around the counted
// in-process run.
var sweepCounters = []string{
	"rta.iterations", "rta.calls", "partition.splits", "split.tp.calls", "experiments.crossscale.memo_hits",
}

// sweepRun is a run's sweep phase, measured over several rounds.
type sweepRun struct {
	spec      *sweepSpec
	seed      int64
	startups  []float64 // seconds per `experiments -list`
	walls     []float64 // seconds per sweep
	rssMB     []float64 // peak RSS per sweep
	attempted int
	failed    int
	checks    checks
	ref       []experiments.Table // the untimed in-process Workers: 1 run
	want      [32]byte            // SHA-256 of ref as the CLI prints it
	refCounts map[string]int64    // from a second, counted in-process run (traced runs)
	replay    *replay             // the traced replay (traced runs)
}

// newSweepRun runs the sweep in-process once with one worker, untimed, as
// the reference every timed sweep's output must equal. A traced run also
// counts the analysis work in a second in-process run and prepares the
// traced replay.
func newSweepRun(spec *sweepSpec, seed int64, workers int, traced bool) (*sweepRun, error) {
	run := &sweepRun{spec: spec, seed: seed}
	exp, ok := experiments.Find(spec.key)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", spec.key)
	}
	cfg := experiments.Config{Seed: seed, SetsPerPoint: spec.sets, Quick: spec.quick, Workers: 1}
	tables, err := experiments.Run(exp, cfg)
	if err != nil {
		return nil, fmt.Errorf("in-process %s: %w", spec.key, err)
	}
	run.ref = tables
	var buf bytes.Buffer
	for i := range tables {
		tables[i].Render(&buf)
	}
	run.want = sha256.Sum256(buf.Bytes())
	if !traced {
		return run, nil
	}
	// Counting costs time in the hot loops, so the counted run is a second
	// one, apart from the timed reference and the replay.
	obs.SetEnabled(true)
	before := obsValues(sweepCounters)
	_, err = experiments.Run(exp, cfg)
	after := obsValues(sweepCounters)
	obs.SetEnabled(false)
	if err != nil {
		return nil, fmt.Errorf("in-process counted %s: %w", spec.key, err)
	}
	run.refCounts = map[string]int64{}
	for _, n := range sweepCounters {
		run.refCounts[n] = after[n] - before[n]
	}
	if len(tables) != 1 {
		return nil, fmt.Errorf("%s: want one reference table, got %d", spec.key, len(tables))
	}
	switch spec.key {
	case "acceptance-general":
		if run.replay, err = replayAcceptance(seed, spec.sets, workers, spec.quick, tables[0]); err != nil {
			return nil, err
		}
	case "breakdown":
		run.replay = replayBreakdown(seed, spec.sets, workers, spec.quick, tables[0])
	default:
		return nil, fmt.Errorf("no traced replay for %q", spec.key)
	}
	return run, nil
}

// round is round k of the phase's rounds: it times `experiments -list`
// (process start and registry init) listRuns times, then the sweep, repeated until
// dur has passed, checking each sweep's output against the reference. A
// traced run then replays its share of the sweep, so that the replay and
// the sweeps it is compared with see the machine at nearly the same time.
func (run *sweepRun) round(e *env, k, rounds int, dur time.Duration) error {
	for j := 0; j < listRuns; j++ {
		cmd := exec.Command(e.experiments, "-list")
		t0 := time.Now()
		err := cmd.Run()
		run.startups = append(run.startups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("experiments -list: %w", err)
		}
	}
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(e.experiments, run.spec.args(run.seed, e.nproc)...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		wall, peak, err := runPeak(cmd)
		run.attempted++
		switch {
		case err != nil:
			run.failed++
			run.checks.failf("%s: experiments exited: %v: %s", run.spec.name, err, stderr.String())
		case sha256.Sum256(stdout.Bytes()) != run.want:
			run.failed++
			run.checks.failf("%s: sweep %d printed a table that differs from the in-process one-worker run", run.spec.name, run.attempted)
		default:
			run.walls = append(run.walls, wall.Seconds())
			run.rssMB = append(run.rssMB, peak)
		}
	}
	if rp := run.replay; rp != nil {
		return rp.step((k+1)*len(rp.units)/rounds - rp.next)
	}
	return nil
}

// sampleSeedStride is experiments' per-sample seed offset: sample i of a
// sweep point with base seed b draws from b + i·stride. Only the breakdown
// replay needs it; breakdown is not replayable through experiments'
// replay API, whose samples belong to one sweep point each.
const sampleSeedStride = 0x9E3779B9

type namedAlg struct {
	name   string
	metric string // per-layer metric name; empty when not reported alone
	alg    partition.ArenaPartitioner
}

// sweepLayers is the traced replay of a sweep: each task set generated and
// offered to each algorithm in the sweep's own order, on as many worker
// goroutines as the timed sweeps use, with spans around gen.TaskSetInto
// and every PartitionArena call.
type sweepLayers struct {
	algs     []namedAlg
	lanes    []*lane
	gen      span
	part     []span // per algorithm
	sets     int    // sets (acceptance) or shapes (breakdown) generated
	probes   int    // breakdown bisection probes
	memoHits int    // probes answered from the cross-scale memo
	wall     time.Duration
}

// lane is one replay worker's scratch state and its spans and counts,
// folded into the replay's after each fan-out.
type lane struct {
	rng                    *rand.Rand
	sc                     gen.Scratch
	ar                     partition.Arena
	gen                    span
	part                   []span
	sets, probes, memoHits int
}

func newSweepLayers(algs []namedAlg, workers int) *sweepLayers {
	ly := &sweepLayers{algs: algs, part: make([]span, len(algs))}
	for w := 0; w < workers; w++ {
		ly.lanes = append(ly.lanes, &lane{rng: rand.New(xrand.New(0)), part: make([]span, len(algs))})
	}
	return ly
}

func (ly *sweepLayers) busy() time.Duration {
	b := ly.gen.total
	for _, p := range ly.part {
		b += p.total
	}
	return b
}

// fanOut runs fn for every index in [lo, hi) on the lanes, each lane taking
// the next index when it is free, as the sweep's worker pool does, and then
// folds the lanes' spans and counts into ly.
func (ly *sweepLayers) fanOut(lo, hi int, fn func(l *lane, i int) error) error {
	var next atomic.Int64
	next.Store(int64(lo))
	errs := make([]error, len(ly.lanes))
	var wg sync.WaitGroup
	for w, l := range ly.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				if err := fn(l, i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range ly.lanes {
		ly.gen.total += l.gen.total
		ly.gen.count += l.gen.count
		for a := range l.part {
			ly.part[a].total += l.part[a].total
			ly.part[a].count += l.part[a].count
			l.part[a] = span{}
		}
		ly.sets += l.sets
		ly.probes += l.probes
		ly.memoHits += l.memoHits
		l.gen, l.sets, l.probes, l.memoHits = span{}, 0, 0, 0
	}
	return errors.Join(errs...)
}

// replay is a traced replay cut into units that run in order, a few at a
// time: a unit is one sweep point (acceptance) or a slice of one processor
// count's shapes (breakdown).
type replay struct {
	ly    *sweepLayers
	units []func() error
	next  int
}

func (rp *replay) step(n int) error {
	t0 := time.Now()
	defer func() { rp.ly.wall += time.Since(t0) }()
	for ; n > 0 && rp.next < len(rp.units); n-- {
		if err := rp.units[rp.next](); err != nil {
			return err
		}
		rp.next++
	}
	return nil
}

// acceptanceGen is acceptance-general's generator as the replay runs it:
// the processor count and the points' target utilizations, which
// experiments does not export. newAcceptanceGen checks it against
// experiments.ReplaySample, so a change to the sweep fails the replay at
// set-up instead of skewing its spans.
type acceptanceGen struct {
	m      int
	points []float64
}

func (g acceptanceGen) config(point int) gen.Config {
	return gen.Config{TargetU: g.points[point] * float64(g.m), UMin: 0.05, UMax: 0.95}
}

// newAcceptanceGen returns the generator and, per point, the seed of every
// sample, derived by experiments.RecipeFor exactly as the sweep derives
// them. Each point's first set must equal the one ReplaySample gives.
// ReplaySample itself is not what the replay times: with its fresh RNG and
// scratch per set it costs about three times the sweep's generation.
func newAcceptanceGen(key string, seed int64, sets int, quick bool, points int) (acceptanceGen, [][]int64, error) {
	g := acceptanceGen{m: 8, points: sweepPoints(0.60, 1.00, 0.025)}
	if quick {
		g = acceptanceGen{m: 4, points: sweepPoints(0.65, 0.95, 0.10)}
	}
	if len(g.points) != points {
		return g, nil, fmt.Errorf("%s has %d points, the replay's generator %d", key, points, len(g.points))
	}
	seeds := make([][]int64, points)
	for i := range seeds {
		seeds[i] = make([]int64, sets)
		for s := range seeds[i] {
			rc, err := experiments.RecipeFor(key, seed, quick, i, s)
			if err != nil {
				return g, nil, err
			}
			seeds[i][s] = rc.SampleSeed
		}
		want, m, err := experiments.ReplaySample(key, quick, i, seeds[i][0])
		if err != nil {
			return g, nil, err
		}
		got, err := gen.TaskSetInto(rand.New(xrand.New(seeds[i][0])), g.config(i), nil)
		if err != nil || m != g.m || !slices.Equal(got, want) {
			return g, nil, fmt.Errorf("%s point %d: the replay's generator no longer matches experiments.ReplaySample", key, i)
		}
	}
	return g, seeds, nil
}

// sweepPoints mirrors experiments' point grid: from + i·step, up to and
// including to.
func sweepPoints(from, to, step float64) []float64 {
	k := int((to-from)/step + 1e-9)
	out := make([]float64, 0, k+1)
	for i := 0; i <= k; i++ {
		out = append(out, from+float64(i)*step)
	}
	return out
}

// replayAcceptance replays acceptance-general (E2): per point, every set
// through RM-TS, SPA2 and P-RM-FF. Each point's acceptance ratios must
// render exactly the reference table's row.
func replayAcceptance(seed int64, sets, workers int, quick bool, ref experiments.Table) (*replay, error) {
	g, seeds, err := newAcceptanceGen("acceptance-general", seed, sets, quick, len(ref.Rows))
	if err != nil {
		return nil, err
	}
	ly := newSweepLayers([]namedAlg{
		{"RM-TS", "partition.rmts.set_us", partition.NewRMTS(bounds.Max{Bounds: []bounds.PUB{
			bounds.LiuLayland{}, bounds.HarmonicChain{Minimal: true}, bounds.TBound{}, bounds.RBound{},
		}})},
		{"SPA2", "partition.spa2.set_us", partition.SPA2{}},
		{"P-RM-FF", "partition.ffrta.set_us", partition.FirstFitRTA{}},
	}, workers)
	rp := &replay{ly: ly}
	for i, want := range ref.Rows {
		rp.units = append(rp.units, func() error {
			nAlgs := len(ly.algs)
			accepted := make([]bool, sets*nAlgs)
			err := ly.fanOut(0, sets, func(l *lane, s int) error {
				t0 := time.Now()
				l.rng.Seed(seeds[i][s])
				ts, err := gen.TaskSetInto(l.rng, g.config(i), &l.sc)
				l.gen.add(time.Since(t0))
				if err != nil {
					return err
				}
				l.sets++
				for a := range ly.algs {
					t0 := time.Now()
					res := ly.algs[a].alg.PartitionArena(ts, g.m, &l.ar)
					l.part[a].add(time.Since(t0))
					accepted[s*nAlgs+a] = res.OK && res.Guaranteed
				}
				return nil
			})
			if err != nil {
				return err
			}
			row := []string{strconv.FormatFloat(g.points[i], 'f', 3, 64)}
			for a := range ly.algs {
				n := 0
				for s := 0; s < sets; s++ {
					if accepted[s*nAlgs+a] {
						n++
					}
				}
				row = append(row, strconv.FormatFloat(float64(n)/float64(sets), 'f', 3, 64))
			}
			if !slices.Equal(row, want) {
				return fmt.Errorf("acceptance replay diverged from the reference table at point %d: %v", i, row)
			}
			return nil
		})
	}
	return rp, nil
}

// breakdownSlice is how many shapes one breakdown replay unit bisects.
const breakdownSlice = 25

// replayBreakdown replays breakdown (E6): per processor count, every shape
// bisected per algorithm with the sweep's exact-C-vector memo. Each
// processor count's breakdown means must render exactly the reference
// table's rows.
func replayBreakdown(seed int64, setsPerPoint, workers int, quick bool, ref experiments.Table) *replay {
	ly := newSweepLayers([]namedAlg{
		{"RM-TS", "partition.rmts.set_us", partition.NewRMTS(nil)},
		{"RM-TS/light", "", partition.RMTSLight{}},
		{"SPA2", "partition.spa2.set_us", partition.SPA2{}},
		{"P-RM-FF", "partition.ffrta.set_us", partition.FirstFitRTA{}},
	}, workers)
	ms := []int{4, 8, 16}
	sets := setsPerPoint / 2
	if sets < 8 {
		sets = 8
	}
	if quick {
		ms = []int{4}
		if sets > 20 {
			sets = 20
		}
	}
	r := rand.New(xrand.New(seed ^ 0xE6))
	rp := &replay{ly: ly}
	for mi, m := range ms {
		base := r.Int63()
		samples := make([][]float64, len(ly.algs))
		for a := range samples {
			samples[a] = make([]float64, sets)
		}
		for lo := 0; lo < sets; lo += breakdownSlice {
			hi := min(lo+breakdownSlice, sets)
			rp.units = append(rp.units, func() error {
				err := ly.fanOut(lo, hi, func(l *lane, s int) error {
					t0 := time.Now()
					l.rng.Seed(base + int64(s)*sampleSeedStride)
					shape, err := gen.TaskSetInto(l.rng, gen.Config{TargetU: float64(m), UMin: 0.05, UMax: 0.40}, &l.sc)
					l.gen.add(time.Since(t0))
					if err != nil {
						return err
					}
					l.sets++
					for a := range ly.algs {
						samples[a][s] = l.bisect(ly.algs[a].alg, a, shape, m)
					}
					return nil
				})
				if err != nil || hi < sets {
					return err
				}
				for a := range ly.algs {
					xs := append([]float64(nil), samples[a]...)
					sort.Float64s(xs)
					cells := []string{strconv.Itoa(m), ly.algs[a].name,
						fmt.Sprintf("%.3f (%.3f–%.3f)", stats.Mean(xs), xs[0], xs[len(xs)-1])}
					row := mi*len(ly.algs) + a
					if row >= len(ref.Rows) || !slices.Equal(cells, ref.Rows[row]) {
						return fmt.Errorf("breakdown replay diverged from the reference table at row %d: %v", row, cells)
					}
				}
				return nil
			})
		}
	}
	return rp
}

// bisect finds the breakdown utilization of one shape under algorithm alg
// (the replay's a-th): the largest C scale in (0, 1] that it accepts, by 12
// halvings, with probes whose scaled C-vector was already decided answered
// from the memo, exactly as the breakdown sweep does.
func (l *lane) bisect(alg partition.ArenaPartitioner, a int, shape task.Set, m int) float64 {
	n := len(shape)
	scaled := make(task.Set, n)
	var memoC []task.Time
	type entry struct {
		ok bool
		u  float64
	}
	var memo []entry
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
		l.probes++
		for e := range memo {
			key := memoC[e*n : (e+1)*n]
			hit := true
			for i := range key {
				if key[i] != scaled[i].C {
					hit = false
					break
				}
			}
			if hit {
				l.memoHits++
				return memo[e].ok, memo[e].u
			}
		}
		t0 := time.Now()
		res := alg.PartitionArena(scaled, m, &l.ar)
		l.part[a].add(time.Since(t0))
		ok, u := res.OK && res.Guaranteed, scaled.NormalizedUtilization(m)
		for i := range scaled {
			memoC = append(memoC, scaled[i].C)
		}
		memo = append(memo, entry{ok, u})
		return ok, u
	}
	if ok, u := accepts(1.0); ok {
		return u
	}
	lo, hi, best := 0.0, 1.0, 0.0
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

// renderUS is the mean time of experiments.Table.Render over the tables.
func renderUS(tables []experiments.Table) float64 {
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		for j := range tables {
			tables[j].Render(io.Discard)
		}
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / reps
}
