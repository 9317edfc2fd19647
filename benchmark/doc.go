// Command benchmark is the repository's end-to-end benchmark. It measures
// the two jobs the repository does, from outside the binaries that do them:
// answering RM-TS admission questions online through cmd/admitd over
// loopback HTTP, and reproducing the paper's evaluation through
// cmd/experiments. It is one process: it launches those binaries, generates
// every request from the seed it is given, checks every answer, and prints
// every metric by name and unit, the last line of standard output being
// one JSON object.
//
// Run it from the repository root; run.sh builds the binaries first:
//
//	bash benchmark/run.sh --workload churn-acceptance --seed 1 --seconds 40 --trace 0
//
// # Workloads
//
// Every end-to-end metric must be measured on every workload, so each
// workload pairs one admission traffic mix with one sweep, each given half
// of --seconds. A run alternates eight rounds of the two: a fresh daemon
// with task streams of its own per round, then `experiments -list` and as
// many sweeps as fit, so that neither a slow stretch of the machine nor one
// daemon decides a run's figures. Admission clients are closed-loop: each
// waits for its verdict before choosing its next op, on one keep-alive
// connection of its own. Tasks come from internal/gen with log-uniform
// periods in [100, 10000].
//
// churn-acceptance:
//   - admit-churn: admitd journaled, with the gate and request tracing on
//     but -fsync off and periodic snapshots off: the deployed group-commit
//     fsync and snapshot fsyncs run under the journal's locks and put this
//     host's shared disk into every tail (admit_p99_us swung tenfold across
//     ten runs), so snapshots are timed on the in-process journaled twin
//     instead. It boots on a journal of 4000 ops the
//     benchmark wrote beforehand, untimed, so set-up includes recovery. One
//     keep-alive client on an M=4 cluster admits a light task (U in [0.01,
//     0.05]) and then removes its oldest resident, holding 40, so nearly
//     every op is a journaled write and none is rejected. Network, HTTP
//     and the journal dominate; the engine is a few microseconds, so a
//     change to the engine should show no gain here.
//   - sweep-acceptance: experiments -run acceptance-general at full scale
//     (M=8, 17 points, RM-TS / SPA2 / P-RM-FF, 3000 sets per point) with
//     -workers = nproc. Generation, partitioning, RTA and splitting
//     dominate; there is no HTTP and no cross-scale memo.
//
// saturated-breakdown:
//   - admit-saturated: admitd in memory (no journal), gate and tracing on.
//     Two clients each own an M=32 cluster held at capacity: each admits
//     tasks (U in [0.05, 0.35]) until one is rejected, then removes its
//     oldest resident, so about half of the admits are rejections that probe
//     all 32 processors and carry 32 rows of evidence. Engine, evidence and
//     response encoding dominate and the journal is bypassed.
//   - sweep-breakdown: experiments -run breakdown (M = 4, 8, 16; 200 set
//     shapes) with -workers = nproc. Its bisections re-probe scaled copies
//     of each shape through the cross-scale memo, which sweep-acceptance
//     never touches.
//
// # End-to-end metrics (--trace 0)
//
//	admit_p50_us    admit round-trip latency, median
//	remove_p50_us   remove round-trip latency, median
//	setup_s         admitd launch until its clusters are recovered or
//	                prefilled and the load starts (median over four boots
//	                per round, three of which only time set-up), plus the
//	                wall time of `experiments -list` (median over three
//	                starts per round)
//	rss_mb          admitd's peak resident set (VmHWM) after the load,
//	                median over the rounds' daemons
//	sweep_s         wall time of one sweep process, median
//	sweep_rss_mb    the sweep process's peak resident set, median
//
// Standard error also carries admit_per_s (admit requests completed per
// second, both verdicts) and admit_p99_us (nearest rank, thousands of
// samples per daemon). They are not in the result line: on the 2-vCPU
// virtual machine the benchmark was built on they followed the host's
// stalls more than the program. The admission figures are computed per
// daemon and the median over the eight daemons is reported, so that a stall
// of the host spoils one daemon's figures rather than the run's.
//
// Latencies count only ops sent after each boot's warm-up, a tenth of its
// load. A failed op is a transport error, a non-2xx response (429 and 503
// included) or a failed correctness check; the result line's failed and
// attempted fields give the error rate, and a run with any failure reports
// correct=false. A rejection verdict is a success.
//
// # Correctness gates
//
// Every admit and remove response must equal, byte for byte, the answer of
// an in-process twin service replaying the same ops; the daemon's GET
// /v1/canon digest must equal the twin's canonical state; every final
// processor must pass the cold rta.ProcessorSchedulable oracle; after
// recovery the daemon's digest must equal that of the service that wrote
// the journal; and the daemon's domain counters over the phase, scraped from
// /metrics (JSON) before and after, must equal the twin's exactly (each
// client owns its cluster, so they are a function of the ops). Every
// sweep's table output must equal the others and an in-process run of the
// same seed with one worker.
//
// # Per-layer metrics (--trace 1)
//
// A traced run alternates traced and untraced blocks of 64 ops under each
// daemon; in traced blocks a GET /healthz round trip follows every fourth
// op. Each daemon's ops are then replayed in-process through each layer's
// public entry point, each on its own twin, with spans around those calls
// only: admit.Service.Handler().ServeHTTP via httptest, admit.Cluster.Admit
// journaled and not, partition.Online.Admit, explain.ProbeRTA over every
// processor of each rejection, encoding/json on admit.AdmitRequest and
// admit.Result, and admit.Gate.Acquire. Sweeps are replayed set by set
// through gen.TaskSetInto and each algorithm's PartitionArena on as many
// goroutines as the sweep has workers, in slices between timed sweeps;
// acceptance-general's sample seeds come from experiments.RecipeFor and its
// generator is checked against experiments.ReplaySample, and the replay
// must reproduce the reference table row for row. Counts come from
// admitd's /metrics and from a counted in-process experiments.Run.
//
// Layer times are means per op, so that self times sum. Every row of the
// attribution tables on standard error is measured on its own (the
// /healthz round trip under load, the in-process twins, the sweep replay),
// and their sum is compared with the untraced end-to-end mean; the
// ROADMAP's target is within 10%. Beside the admission table stands
// admit.http.wait: the daemon's own admit-route latency histogram less the
// in-process handler and journal, the handler's wait for a CPU or a lock
// under load. It is a remainder, so it is not a row; a negative one is
// flagged. The gap between traced and untraced blocks (admission) or
// between the traced replay and the untraced sweeps less their start-up
// (sweeps) is reported as the tracing overhead.
//
// Each layer metric and the end-to-end metric it should move:
//
//	net.rtt_us                         admit_p50_us on churn-acceptance
//	admit.http.self_us, .decode_us,    admit_p50_us on churn-acceptance;
//	  .encode_us, .response_bytes        encode and bytes also admit_p99_us
//	                                     on saturated-breakdown (rejections
//	                                     carry M evidence rows)
//	admit.http.wait_us                 admit_p99_us and admit_per_s on
//	                                     saturated-breakdown (the handler's
//	                                     wait for a CPU or lock under load)
//	admit.gate.acquire_us              the gate's fixed cost per admit
//	admit.gate.queued_ratio,           admit_p99_us on saturated-breakdown
//	  .shed_ratio                        and the error rate (the daemon's
//	                                     own gate counters)
//	admit.cluster.self_us,             admit_per_s on saturated-breakdown;
//	  .memo_hit_ratio                    the memo hit ratio is the share of
//	                                     repeated questions
//	explain.evidence_us                admit_p99_us, admit_per_s on
//	                                     saturated-breakdown; 0 on churn
//	partition.online.admit_us,         admit_per_s on saturated-breakdown,
//	  .probes_per_admit,                 flat on churn-acceptance
//	  partition.prefilter.hit_ratio,
//	  rta.iters_per_admit, rta.warm_start_ratio
//	admit.journal.append_us,           admit_p50_us and remove_p50_us on
//	  .bytes_per_op                      churn-acceptance; 0 on
//	                                     saturated-breakdown
//	admit.journal.snapshot_us          nothing end to end while the
//	                                     benchmark's daemon snapshots only
//	                                     at shutdown (twin-measured; 0 on
//	                                     saturated-breakdown)
//	admit.recover.replay_us_per_record setup_s on churn-acceptance
//	admit.allocs_per_admit,            rss_mb and admit_p99_us
//	  admit.bytes_per_admit
//	admitd.cpu_us_per_op,              whether a change moved server work
//	  loadgen.cpu_us_per_op              or only client noise
//	gen.set_us, partition.{rmts,spa2,  sweep_s on churn-acceptance (per set)
//	  ffrta}.set_us, rta.iters_per_set,  and on saturated-breakdown (per
//	  rta.calls_per_set,                 shape, and per bisection probe)
//	  partition.splits_per_set,
//	  split.tp_calls_per_set
//	experiments.render_us,             sweep_s on both workloads
//	  experiments.parallel_efficiency
//	experiments.crossscale.memo_hit_ratio,  sweep_s on saturated-breakdown
//	  breakdown.probes_per_set              only; 0 on churn-acceptance
//	attribution.{admit,sweep}_coverage the attribution tables' sums over the
//	                                     end-to-end means
//	trace.{admit,sweep}_overhead       the tracing overhead
package main
