package main

import (
	"debug/buildinfo"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload pairs one admission mix with one sweep; see the package doc
// for why every workload exercises both jobs.
type workload struct {
	name  string
	admit admitSpec
	sweep sweepSpec
}

var workloads = []workload{
	{
		name: "churn-acceptance",
		admit: admitSpec{name: "admit-churn", m: 4, clients: 1, uMin: 0.01, uMax: 0.05,
			hold: 40, preWrite: 4000},
		sweep: sweepSpec{name: "sweep-acceptance", key: "acceptance-general", sets: 3000},
	},
	{
		name:  "saturated-breakdown",
		admit: admitSpec{name: "admit-saturated", m: 32, clients: 2, uMin: 0.05, uMax: 0.35},
		sweep: sweepSpec{name: "sweep-breakdown", key: "breakdown", sets: 400},
	},
}

// rounds is how many times a run alternates between its admission phase
// (a fresh daemon each round) and its sweeps. Spreading both over the whole
// run, and booting the daemon more than once, keeps a slow stretch of the
// machine or one unlucky daemon from deciding a run's figures.
const rounds = 8

// setupBoots is how many more daemons each round boots only to time their
// set-up, and listRuns how many times each round times `experiments -list`.
// Set-up is a few short process starts and round trips, so one sample per
// round would let one scheduling hiccup move setup_s.
const (
	setupBoots = 3
	listRuns   = 3
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env locates the binaries under test and the working directory.
type env struct {
	admitd      string
	experiments string
	work        string
	nproc       int
}

func newEnv(bin, work string) (*env, error) {
	e := &env{
		admitd:      filepath.Join(bin, "admitd"),
		experiments: filepath.Join(bin, "experiments"),
		work:        work,
		nproc:       runtime.NumCPU(),
	}
	for _, p := range []string{e.admitd, e.experiments} {
		if st, err := os.Stat(p); err != nil || st.IsDir() {
			return nil, fmt.Errorf("binary under test %s not found (build it first; see run.sh)", p)
		}
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	return e, os.MkdirAll(work, 0o755)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Int64("seed", 1, "seed of every generated input")
		seconds = fs.Int("seconds", 40, "measured seconds, split evenly between the admission phase and the sweeps")
		trace   = fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay instead of end-to-end metrics")
		bin     = fs.String("bin", ".bench_build", "directory holding the admitd and experiments binaries")
		work    = fs.String("work", ".bench_build/work", "working directory for journals and addresses, emptied first")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: need -workload churn-acceptance|saturated-breakdown, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	e, err := newEnv(*bin, *work)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	printMetadata(stderr, e)
	res, err := runWorkload(e, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printMetadata records the machine and build the numbers came from.
func printMetadata(w io.Writer, e *env) {
	goVersion, rev := runtime.Version(), "unknown"
	if bi, err := buildinfo.ReadFile(e.admitd); err == nil {
		goVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d go=%s rev=%s\n",
		e.nproc, runtime.GOMAXPROCS(0), goVersion, rev)
}

// runWorkload measures w for about total: half of it under admission load,
// half sweeping, alternating over rounds. A traced run replays each round's
// work through the layers right after it.
func runWorkload(e *env, w workload, seed int64, total time.Duration, traced bool, log io.Writer) (*result, error) {
	sr, err := newSweepRun(&w.sweep, seed, e.nproc, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.sweep.name, err)
	}
	var ap admitPhase
	var setups []float64 // seconds, every boot's set-up
	ly := &admitLayers{}
	admitDur := total / 2 / rounds
	sweepDur := (total - total/2) / rounds
	for k := 0; k < rounds; k++ {
		// Each round's daemon gets task streams of its own, so a run's
		// figures rest on more inputs than one stream's opening.
		fx, err := newAdmitFixture(e, &w.admit, seed*rounds+int64(k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.admit.name, err)
		}
		for j := 0; j < setupBoots; j++ {
			s, err := fx.setupOnly(e)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.admit.name, err)
			}
			setups = append(setups, s)
		}
		run, err := fx.boot(e, admitDur, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.admit.name, err)
		}
		ap = append(ap, run)
		setups = append(setups, run.setup)
		if traced {
			if err := ly.replay(e, run); err != nil {
				return nil, fmt.Errorf("%s layers: %w", w.admit.name, err)
			}
		}
		if err := sr.round(e, k, rounds, sweepDur); err != nil {
			return nil, fmt.Errorf("%s: %w", w.sweep.name, err)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var failures []string
	attempted, failed := 0, 0
	for _, r := range ap {
		a, f := r.counts()
		attempted += a
		failed += f
		failures = append(failures, r.checks.failures...)
	}
	fmt.Fprintf(log, "phase %s: attempted %d succeeded %d failed %d\n", w.admit.name, attempted, attempted-failed, failed)
	fmt.Fprintf(log, "phase %s: attempted %d succeeded %d failed %d\n", w.sweep.name, sr.attempted, sr.attempted-sr.failed, sr.failed)
	res.Attempted = attempted + sr.attempted
	res.Failed = failed + sr.failed
	failures = append(failures, sr.checks.failures...)
	if traced {
		if got, want := int64(sr.replay.ly.memoHits), sr.refCounts["experiments.crossscale.memo_hits"]; got != want {
			failures = append(failures, fmt.Sprintf("%s: traced replay hit the cross-scale memo %d times, the sweep %d", w.sweep.name, got, want))
		}
	}
	for _, f := range failures {
		fmt.Fprintf(log, "CHECK FAILED: %s\n", f)
	}
	res.Correct = len(failures) == 0 && res.Failed == 0

	// Each daemon's figures are taken on their own and the median over the
	// daemons reported: a stall of the host (a descheduled CPU, a slow
	// disk) then spoils one daemon's figures, not the run's.
	var perS, p50, p99, rp50, rss []float64
	for _, r := range ap {
		a, rm := r.measured(false, nil, nil)
		perS = append(perS, float64(len(a))/r.end.Sub(r.warmEnd).Seconds())
		p50 = append(p50, percentile(a, 0.50))
		p99 = append(p99, percentile(a, 0.99))
		rp50 = append(rp50, percentile(rm, 0.50))
		rss = append(rss, r.rssMB)
	}
	admits, removes := ap.measured(false)
	x := endToEnd{
		admitPerS:  median(perS),
		admitMean:  mean(admits),
		admitP50:   median(p50),
		admitP99:   median(p99),
		removeP50:  median(rp50),
		setupS:     median(setups) + median(sr.startups),
		rssMB:      median(rss),
		sweepS:     median(sr.walls),
		sweepRSSMB: median(sr.rssMB),
	}
	fmt.Fprintf(log, "samples: %d admits and %d removes in %.2fs after warm-up over %d daemons; %d daemon set-ups; %d sweeps; %d experiments start-ups\n",
		len(admits), len(removes), ap.window().Seconds(), len(ap), len(setups), len(sr.walls), len(sr.startups))
	// Throughput and the tail are printed, not reported: on the 2-vCPU
	// virtual machine the benchmark was built on they followed the host's
	// stalls rather than the program (ten-run IQR/median 0.21-0.25 for the
	// rate and 0.55-2.15 for p99, against 0.08-0.17 for the medians).
	fmt.Fprintf(log, "set-up: admitd median %.4gs over %d boots, experiments -list median %.4gs over %d starts\n",
		median(setups), len(setups), median(sr.startups), len(sr.startups))
	fmt.Fprintf(log, "admit_per_s %.6g 1/s, admit_p99_us %.6g us (median over daemons)\n", x.admitPerS, x.admitP99)
	fmt.Fprintf(log, "per daemon: admit_p50_us %.4g, remove_p50_us %.4g; per sweep: sweep_s %.3g\n", p50, rp50, sr.walls)
	if !traced {
		x.put(res.Metrics)
		return res, nil
	}
	putLayers(res.Metrics, e, ap, ly, sr, x, log)
	return res, nil
}

// endToEnd holds the metrics a user of the system sees.
type endToEnd struct {
	admitPerS, admitMean, admitP50, admitP99, removeP50 float64
	setupS, rssMB, sweepS, sweepRSSMB                   float64
}

func (x endToEnd) put(m map[string]metric) {
	m["admit_p50_us"] = metric{x.admitP50, "us"}
	m["remove_p50_us"] = metric{x.removeP50, "us"}
	m["setup_s"] = metric{x.setupS, "s"}
	m["rss_mb"] = metric{x.rssMB, "MiB"}
	m["sweep_s"] = metric{x.sweepS, "s"}
	m["sweep_rss_mb"] = metric{x.sweepRSSMB, "MiB"}
}
