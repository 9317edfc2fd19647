package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// row is one line of an attribution table: a layer's self time per op.
type row struct {
	layer string
	self  float64
}

// attribution prints rows as shares of the untraced end-to-end mean and
// returns their sum as a share of it (the coverage, which must lie within
// 10% of 1 for the table to account for the end-to-end time).
func attribution(w io.Writer, title, unit string, e2e float64, rows []row) float64 {
	fmt.Fprintf(w, "attribution %s (self %s per op; untraced end-to-end mean %.4g %s)\n", title, unit, e2e, unit)
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %10.4g  %6.1f%%\n", r.layer, r.self, 100*r.self/e2e)
		sum += r.self
	}
	cov := sum / e2e
	verdict := "within 10%"
	if math.Abs(cov-1) > 0.10 {
		verdict = "OUTSIDE 10%"
	}
	fmt.Fprintf(w, "  %-26s %10.4g  %6.1f%%  (%s of end to end)\n", "sum", sum, 100*cov, verdict)
	return cov
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// putLayers fills the per-layer metrics of a traced run and prints the
// attribution tables with the tracing overhead beside them.
func putLayers(m map[string]metric, e *env, ap admitPhase, ly *admitLayers, sr *sweepRun, x endToEnd, log io.Writer) {
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	spec := ap[0].spec
	admits := float64(ly.admits)

	// Admission layers: spans are means per admit op over the same ops.
	clusterUS := ly.cluster.meanUS()
	journalUS := 0.0
	if spec.journaled() {
		journalUS = selfTime(ly.clusterJ.meanUS(), clusterUS)
	}
	engineUS := ly.engine.meanUS()
	evidencePerAdmit := ly.evidence.perOpUS(ly.admits)
	httpSelf := selfTime(ly.http.meanUS(), clusterUS)
	clusterSelf := selfTime(clusterUS, engineUS, evidencePerAdmit)
	// The daemon times its own admit handler under the phase's load; what
	// that exceeds the uncontended in-process handler (and the journal the
	// paced twin measured) is time the handler waited for a CPU or a lock.
	// It is a remainder, not a measurement of its own, so it stays out of
	// the attribution table's sum.
	httpWait := selfTime(ap.histMean("admit.http.admit.latency_us"), ly.http.meanUS(), journalUS)
	var rtt span
	var daemonCPU, selfCPU time.Duration
	var ops float64
	for _, r := range ap {
		rtt.total += r.rtt.total
		rtt.count += r.rtt.count
		daemonCPU += r.daemonCP
		selfCPU += r.selfCP
		ops += float64(r.phaseOps())
	}

	put("net.rtt_us", rtt.meanUS(), "us")
	put("admit.http.wait_us", httpWait, "us")
	put("admit.http.self_us", httpSelf, "us")
	put("admit.http.decode_us", ly.decode.meanUS(), "us")
	put("admit.http.encode_us", ly.encode.meanUS(), "us")
	put("admit.http.response_bytes", ratio(float64(ly.respBytes), admits), "bytes")
	put("admit.gate.acquire_us", ly.gate.meanUS(), "us")
	put("admit.gate.queued_ratio", ratio(ap.delta("admit.gate.queued"), ap.delta("admit.gate.admitted")+ap.delta("admit.gate.shed")), "ratio")
	put("admit.gate.shed_ratio", ratio(ap.delta("admit.gate.shed"), ap.delta("admit.gate.admitted")+ap.delta("admit.gate.shed")), "ratio")
	put("admit.cluster.self_us", clusterSelf, "us")
	put("admit.cluster.memo_hit_ratio", ratio(ap.delta("admit.cache_hits"), ap.delta("admit.requests")), "ratio")
	put("explain.evidence_us", ly.evidence.meanUS(), "us")
	put("partition.online.admit_us", engineUS, "us")
	put("partition.online.probes_per_admit", ratio(float64(ly.probes), admits), "count")
	put("partition.prefilter.hit_ratio", ratio(float64(ly.prefil), float64(ly.probes)), "ratio")
	put("rta.iters_per_admit", ratio(float64(ly.rtaIters), admits), "count")
	put("rta.warm_start_ratio", ratio(float64(ly.warmStarts), float64(ly.rtaCalls)), "ratio")
	put("admit.journal.append_us", journalUS, "us")
	put("admit.journal.bytes_per_op", ratio(float64(ly.walBytes), float64(ly.journalRecs)), "bytes")
	put("admit.journal.snapshot_us", ly.snapshot.meanUS(), "us")
	put("admit.recover.replay_us_per_record", ratio(ap.atStart("admit.recover.duration_us"), ap.atStart("admit.recover.replayed")), "us")
	put("admit.allocs_per_admit", ratio(float64(ly.mallocs), admits), "count")
	put("admit.bytes_per_admit", ratio(float64(ly.allocBytes), admits), "bytes")
	put("admitd.cpu_us_per_op", ratio(us(daemonCPU), ops), "us")
	put("loadgen.cpu_us_per_op", ratio(us(selfCPU), ops), "us")

	// Every row is measured on its own: the /healthz round trip under the
	// phase's load, and the in-process layers on their twins. Their sum is
	// the round trip plus the in-process handler and journal.
	rows := []row{
		{"net.rtt (/healthz)", rtt.meanUS()},
		{"admit.http.self", httpSelf},
		{"admit.cluster.self", clusterSelf},
	}
	if spec.journaled() {
		rows = append(rows, row{"admit.journal.append", journalUS})
	}
	rows = append(rows, row{"partition.online.admit", engineUS}, row{"explain.evidence", evidencePerAdmit})
	cov := attribution(log, spec.name, "us", x.admitMean, rows)
	fmt.Fprintf(log, "  unattributed: admit.http.wait %.4g us (%.1f%%), the daemon-timed handler less the in-process handler and journal\n",
		httpWait, 100*httpWait/x.admitMean)
	if httpWait < 0 {
		fmt.Fprintf(log, "FLAG: %s: the daemon timed its admit handler %.3g us faster than the in-process twins; the layer spans overstate it\n",
			spec.name, -httpWait)
	}
	tracedAdmits, _ := ap.measured(true)
	overhead := mean(tracedAdmits)/x.admitMean - 1
	fmt.Fprintf(log, "  of admit.http.self: decode %.3g us, encode %.3g us, gate acquire %.3g us\n",
		ly.decode.meanUS(), ly.encode.meanUS(), ly.gate.meanUS())
	fmt.Fprintf(log, "  tracing overhead: %+.1f%% (admit mean %.4g us in blocks with /healthz probes vs %.4g us in blocks without)\n",
		100*overhead, mean(tracedAdmits), x.admitMean)
	put("attribution.admit_coverage", cov, "ratio")
	put("trace.admit_overhead", overhead, "ratio")

	// Sweep layers: per set (or breakdown shape) and per partitioning call.
	sl := sr.replay.ly
	sets := float64(sl.sets)
	put("gen.set_us", sl.gen.meanUS(), "us")
	for a, alg := range sl.algs {
		if alg.metric != "" {
			put(alg.metric, sl.part[a].meanUS(), "us")
		}
	}
	put("rta.iters_per_set", ratio(float64(sr.refCounts["rta.iterations"]), sets), "count")
	put("rta.calls_per_set", ratio(float64(sr.refCounts["rta.calls"]), sets), "count")
	put("partition.splits_per_set", ratio(float64(sr.refCounts["partition.splits"]), sets), "count")
	put("split.tp_calls_per_set", ratio(float64(sr.refCounts["split.tp.calls"]), sets), "count")
	renderUS := renderUS(sr.ref)
	put("experiments.render_us", renderUS, "us")
	workers := float64(e.nproc)
	put("experiments.parallel_efficiency", sl.busy().Seconds()/(workers*x.sweepS), "ratio")
	put("experiments.crossscale.memo_hit_ratio", ratio(float64(sr.refCounts["experiments.crossscale.memo_hits"]), float64(sl.probes)), "ratio")
	put("breakdown.probes_per_set", ratio(float64(sl.probes), sets), "count")

	srows := []row{{"experiments.startup (-list)", median(sr.startups)}, {"gen.TaskSetInto", sl.gen.total.Seconds() / workers}}
	for a, alg := range sl.algs {
		srows = append(srows, row{"partition " + alg.name, sl.part[a].total.Seconds() / workers})
	}
	srows = append(srows, row{"experiments.Table.Render", renderUS * 1e-6})
	scov := attribution(log, sr.spec.name, "s", x.sweepS, srows)
	// The replay runs the sweep's work on as many workers as the timed
	// sweeps, without their process start.
	untraced := x.sweepS - median(sr.startups)
	soverhead := sl.wall.Seconds()/untraced - 1
	fmt.Fprintf(log, "  busy time spread over %d workers; tracing overhead: %+.1f%% (traced replay %.3gs vs untraced sweep %.3gs after start-up)\n",
		e.nproc, 100*soverhead, sl.wall.Seconds(), untraced)
	put("attribution.sweep_coverage", scov, "ratio")
	put("trace.sweep_overhead", soverhead, "ratio")
}
