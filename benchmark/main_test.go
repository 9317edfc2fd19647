package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median(%v) = %g, want 2.5", xs, got)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
}

func TestSpanMeansAndSelfTime(t *testing.T) {
	var s span
	s.add(10 * time.Microsecond)
	s.add(30 * time.Microsecond)
	if got := s.meanUS(); got != 20 {
		t.Errorf("meanUS = %g, want 20", got)
	}
	if got := s.perOpUS(4); got != 10 {
		t.Errorf("perOpUS(4) = %g, want 10", got)
	}
	var empty span
	if got := empty.meanUS(); got != 0 {
		t.Errorf("empty span mean = %g, want 0", got)
	}
	if got := selfTime(100, 30, 20.5); got != 49.5 {
		t.Errorf("selfTime(100; 30, 20.5) = %g, want 49.5", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0", got)
	}
}

func TestClientPolicies(t *testing.T) {
	churn := &admitSpec{hold: 2}
	d := &policy{spec: churn, tasks: newTaskStream(1, 0.01, 0.05)}
	for i := 0; i < 2; i++ {
		o := d.nextOp()
		if o.remove {
			t.Fatalf("churn removed before holding its residents")
		}
		o.accepted, o.newHandle = true, uint64(i+1)
		d.observe(&o)
	}
	if !d.filled() {
		t.Fatalf("churn not filled at its hold")
	}
	o := d.nextOp()
	o.accepted, o.newHandle = true, 3
	d.observe(&o)
	if o := d.nextOp(); !o.remove || o.handle != 1 {
		t.Fatalf("churn above its hold: got %+v, want remove of the oldest handle 1", o)
	}

	d = &policy{spec: &admitSpec{}, tasks: newTaskStream(1, 0.05, 0.35)}
	o = d.nextOp()
	o.accepted, o.newHandle = true, 1
	d.observe(&o)
	o = d.nextOp()
	d.observe(&o) // rejected
	if !d.filled() {
		t.Fatalf("saturate not filled after a rejection")
	}
	if o := d.nextOp(); !o.remove || o.handle != 1 {
		t.Fatalf("saturate after a rejection: got %+v, want remove of handle 1", o)
	}
}

func TestTaskStreamIsSeeded(t *testing.T) {
	a, b := newTaskStream(9, 0.05, 0.35), newTaskStream(9, 0.05, 0.35)
	for i := 0; i < 50; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("task %d differs between two streams of one seed", i)
		}
		if p := a.at(i).T; p < 100 || p > 10000 {
			t.Fatalf("task %d period %d outside [100, 10000]", i, p)
		}
	}
}

// TestAcceptanceGenMatchesReplayAPI pins the acceptance replay's generator
// to experiments' replay API at both scales, and checks that a grid of the
// wrong length is refused.
func TestAcceptanceGenMatchesReplayAPI(t *testing.T) {
	for _, c := range []struct {
		quick  bool
		points int
	}{{false, 17}, {true, 4}} {
		_, seeds, err := newAcceptanceGen("acceptance-general", 5, 3, c.quick, c.points)
		if err != nil {
			t.Fatalf("quick=%v: %v", c.quick, err)
		}
		if len(seeds) != c.points || len(seeds[0]) != 3 {
			t.Fatalf("quick=%v: seeds for %d points, want %d", c.quick, len(seeds), c.points)
		}
	}
	if _, _, err := newAcceptanceGen("acceptance-general", 5, 3, true, 5); err == nil {
		t.Fatal("a grid of the wrong length was accepted")
	}
}

func TestProcReaders(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("peakRSSMB = %g, %v", mb, err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	dir := t.TempDir()
	code := run([]string{"-workload", "churn-acceptance", "-bin", dir, "-work", filepath.Join(dir, "w")}, &out, &errOut)
	if code != 1 || out.Len() != 0 {
		t.Errorf("missing binaries: exit %d with output %q, want 1 and none", code, out.String())
	}
}

// buildSystem builds the binaries under test into a temporary directory.
func buildSystem(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/admitd", "repro/cmd/experiments")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and requires every gate to pass and exactly the metrics
// BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs admitd and experiments")
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	bin := buildSystem(t)
	for _, dw := range decl.Workloads {
		w, ok := findWorkload(dw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the benchmark", dw.Name)
		}
		w.admit.preWrite = min(w.admit.preWrite, 200)
		w.sweep.sets, w.sweep.quick = 8, true
		for _, traced := range []bool{false, true} {
			e, err := newEnv(bin, filepath.Join(t.TempDir(), "work"))
			if err != nil {
				t.Fatal(err)
			}
			var log strings.Builder
			res, err := runWorkload(e, w, 3, 2*time.Second, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, log.String())
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, declared %s", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %g", w.name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
