package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admit"
	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/partition"
)

// admitLayers is the traced replay of one admission phase: the phase's
// recorded ops run again in-process through each layer's public entry
// point, every layer on its own twin, with spans around the calls only.
// Times are means per admit op, so self times sum along the request path.
type admitLayers struct {
	admits, removes int

	http      span // admit.Service.Handler().ServeHTTP, daemon-configured twin
	cluster   span // admit.Cluster.Admit, unjournaled twin
	clusterJ  span // admit.Cluster.Admit, journaled twin (journaled daemons only)
	engine    span // partition.Online.Admit
	evidence  span // explain.ProbeRTA over every processor, per rejection
	decode    span // encoding/json decode of admit.AdmitRequest
	encode    span // encoding/json encode of admit.Result
	gate      span // admit.Gate.Acquire + Release
	snapshot  span // admit.Service.SnapshotNow on the journaled twin
	respBytes int

	probes                                 int
	rtaIters, rtaCalls, warmStarts, prefil int64
	walBytes                               int64
	journalRecs                            int
	mallocs, allocBytes                    uint64
}

// replay runs every layer twin over the phase of run, adding to the spans
// and counts of the runs before. It returns an error when a twin disagrees
// with the daemon's recorded answer.
func (ly *admitLayers) replay(e *env, run *admitRun) error {
	obs.SetEnabled(true) // admitd runs with metrics on; so do its twins
	defer obs.SetEnabled(false)
	steps := []func(*env, *admitRun, *admitLayers) error{
		replayHTTP, replayCluster, replayAllocs, replayEngine, replayGate,
	}
	if run.spec.journaled() {
		steps = append(steps, replayJournaled)
	}
	for _, step := range steps {
		if err := step(e, run, ly); err != nil {
			return err
		}
	}
	for _, l := range run.logs {
		for i := range l.phase {
			if l.phase[i].remove {
				ly.removes++
			} else {
				ly.admits++
			}
		}
	}
	return nil
}

// twinService builds a service holding the same clusters as the daemon,
// replays history and prefill through the cluster API, and returns the
// clusters in client order. With a journal directory the twin journals as
// the benchmark's journaled daemon does (-fsync off) but with periodic
// snapshots off, so its journal cost is the append path alone and its log
// grows by exactly the bytes appended; the daemon's own snapshots are
// reported from its /metrics.
func twinService(run *admitRun, journal string) (*admit.Service, []*admit.Cluster, error) {
	ctx := context.Background()
	svc := admit.NewService(0)
	if journal != "" {
		if err := os.RemoveAll(journal); err != nil {
			return nil, nil, err
		}
		if _, err := svc.AttachJournal(admit.JournalConfig{Dir: journal, Fsync: admit.FsyncOff, SnapshotEvery: -1}); err != nil {
			return nil, nil, err
		}
	}
	cls := make([]*admit.Cluster, len(run.logs))
	for i, l := range run.logs {
		c, err := svc.Create(ctx, l.cluster, run.spec.m, "", 0)
		if err != nil {
			svc.Close()
			return nil, nil, err
		}
		cls[i] = c
		for _, ops := range [][]op{l.history, l.prefill} {
			for j := range ops {
				o := ops[j]
				if err := applyDirect(ctx, c, &o); err != nil {
					svc.Close()
					return nil, nil, err
				}
			}
		}
	}
	return svc, cls, nil
}

var errTwinDiverged = errors.New("layer twin diverged from the daemon's answer")

// replayHTTP times ServeHTTP on an unjournaled twin with the daemon's gate
// and request tracing (slow-request ring), so that subtracting the
// unjournaled Cluster.Admit leaves the handler stack alone.
func replayHTTP(e *env, run *admitRun, ly *admitLayers) error {
	svc, _, err := twinService(run, "")
	if err != nil {
		return err
	}
	svc.SetGate(admit.NewGate(admit.GateConfig{Timeout: time.Second, RetryAfter: time.Second}))
	svc.SetTracing(admit.TraceConfig{Ring: obs.NewRequestRing(256), SlowThreshold: 100 * time.Millisecond})
	h := svc.Handler()
	for _, l := range run.logs {
		for i := range l.phase {
			o := &l.phase[i]
			req := httptest.NewRequest("POST", o.path(l.cluster), bytes.NewReader(o.body()))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(t0)
			if rec.Code != 200 || hashBytes(rec.Body.Bytes()) != o.hash {
				return fmt.Errorf("%w: ServeHTTP on %s", errTwinDiverged, describe(o))
			}
			if !o.remove {
				ly.http.add(d)
			}
		}
	}
	return nil
}

// replayCluster times Cluster.Admit on an unjournaled twin, and beside it
// the JSON decode of each request and encode of each result.
func replayCluster(e *env, run *admitRun, ly *admitLayers) error {
	_, cls, err := twinService(run, "")
	if err != nil {
		return err
	}
	ctx := context.Background()
	var buf bytes.Buffer
	for ci, l := range run.logs {
		c := cls[ci]
		for i := range l.phase {
			o := &l.phase[i]
			if o.remove {
				if _, err := c.Remove(ctx, o.handle); err != nil {
					return err
				}
				continue
			}
			body := o.body()
			t0 := time.Now()
			var req admit.AdmitRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			derr := dec.Decode(&req)
			more := dec.More()
			ly.decode.add(time.Since(t0))
			if derr != nil || more {
				return fmt.Errorf("decode %s: %v", describe(o), derr)
			}
			t0 = time.Now()
			res, err := c.Admit(ctx, o.task)
			ly.cluster.add(time.Since(t0))
			if err != nil {
				return err
			}
			buf.Reset()
			t0 = time.Now()
			encodeResult(&buf, res)
			ly.encode.add(time.Since(t0))
			ly.respBytes += buf.Len()
			if hashBytes(buf.Bytes()) != o.hash {
				return fmt.Errorf("%w: Cluster.Admit on %s", errTwinDiverged, describe(o))
			}
		}
	}
	return nil
}

// replayAllocs counts heap allocations over a bare Cluster.Admit/Remove
// loop on another unjournaled twin; removes' allocations ride along.
func replayAllocs(e *env, run *admitRun, ly *admitLayers) error {
	_, cls, err := twinService(run, "")
	if err != nil {
		return err
	}
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for ci, l := range run.logs {
		for i := range l.phase {
			o := l.phase[i]
			if err := applyDirect(ctx, cls[ci], &o); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&m1)
	ly.mallocs += m1.Mallocs - m0.Mallocs
	ly.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// replayJournaled times Cluster.Admit on a journaled twin, measures the
// journal bytes the phase appended, and times folding them into a
// snapshot.
func replayJournaled(e *env, run *admitRun, ly *admitLayers) error {
	dir := filepath.Join(e.work, "twin-journal")
	svc, cls, err := twinService(run, dir)
	if err != nil {
		return err
	}
	defer svc.Close()
	w0, err := walBytes(dir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for ci, l := range run.logs {
		for i := range l.phase {
			o := l.phase[i]
			t0 := time.Now()
			if err := applyDirect(ctx, cls[ci], &o); err != nil {
				return err
			}
			d := time.Since(t0)
			if o.remove || o.accepted {
				ly.journalRecs++
			}
			if !o.remove {
				ly.clusterJ.add(d)
			}
		}
	}
	w1, err := walBytes(dir)
	if err != nil {
		return err
	}
	ly.walBytes += w1 - w0
	t0 := time.Now()
	if err := svc.SnapshotNow(); err != nil {
		return err
	}
	ly.snapshot.add(time.Since(t0))
	return nil
}

// replayEngine times partition.Online.Admit on a bare engine twin, and at
// each analyzed rejection the explain.ProbeRTA sweep that builds the
// rejection's evidence, reading the engine's domain counters around it.
func replayEngine(e *env, run *admitRun, ly *admitLayers) error {
	counters := []string{"rta.iterations", "rta.calls", "rta.cache.warm_starts", "partition.prefilter.hits"}
	var before map[string]int64
	engs := make([]*partition.Online, len(run.logs))
	for i, l := range run.logs {
		e, err := partition.NewOnline(run.spec.m, "", 0)
		if err != nil {
			return err
		}
		for _, ops := range [][]op{l.history, l.prefill} {
			for j := range ops {
				applyEngine(e, &ops[j])
			}
		}
		engs[i] = e
	}
	before = obsValues(counters)
	for ci, l := range run.logs {
		e := engs[ci]
		for i := range l.phase {
			o := &l.phase[i]
			if o.remove {
				e.Remove(o.handle)
				continue
			}
			t0 := time.Now()
			pl, err := e.Admit(o.task)
			ly.engine.add(time.Since(t0))
			if err == nil {
				if !o.accepted || pl.Handle != o.newHandle {
					return fmt.Errorf("%w: Online.Admit on %s", errTwinDiverged, describe(o))
				}
				ly.probes += pl.Proc + 1 // first fit probes processors in index order
				continue
			}
			var rej *partition.Rejection
			if !errors.As(err, &rej) || o.accepted {
				return fmt.Errorf("%w: Online.Admit on %s: %v", errTwinDiverged, describe(o), err)
			}
			ly.probes += e.M()
			if rej.Cause != partition.CauseRTADeadlineMiss {
				continue
			}
			d := o.task.Deadline()
			t0 = time.Now()
			for q := 0; q < e.M(); q++ {
				_ = e.Utilization(q)
				explain.ProbeRTA(e.Residents(q), int(d), o.task.C, o.task.T, d, false)
			}
			ly.evidence.add(time.Since(t0))
		}
	}
	after := obsValues(counters)
	ly.rtaIters += after["rta.iterations"] - before["rta.iterations"]
	ly.rtaCalls += after["rta.calls"] - before["rta.calls"]
	ly.warmStarts += after["rta.cache.warm_starts"] - before["rta.cache.warm_starts"]
	ly.prefil += after["partition.prefilter.hits"] - before["partition.prefilter.hits"]
	return nil
}

// replayGate times the gate's fixed cost, an uncontended Acquire/Release
// per admit op on a gate sized like admitd's default. Whether the daemon's
// gate made requests wait shows in its own counters (admit.gate.queued).
func replayGate(e *env, run *admitRun, ly *admitLayers) error {
	g := admit.NewGate(admit.GateConfig{Timeout: time.Second, RetryAfter: time.Second})
	ctx := context.Background()
	for _, l := range run.logs {
		for i := range l.phase {
			if l.phase[i].remove {
				continue
			}
			t0 := time.Now()
			if err := g.Acquire(ctx); err != nil {
				return err
			}
			g.Release()
			ly.gate.add(time.Since(t0))
		}
	}
	return nil
}
