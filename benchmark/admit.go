package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rta"
	"repro/internal/task"
)

// admitSpec is one admission traffic mix against admitd.
type admitSpec struct {
	name       string  // phase name; cluster names derive from it
	m          int     // processors per cluster
	clients    int     // closed-loop clients, each owning one cluster
	uMin, uMax float64 // per-task utilization range of the task stream
	// hold > 0 is the churn policy: hold this many residents, admitting one
	// task and then removing the oldest. hold == 0 saturates: admit until a
	// rejection, then remove the oldest resident and go on admitting.
	hold int
	// preWrite > 0 journals the daemon (-data, with -fsync and periodic
	// snapshots off; see boot) and boots it on a journal of this many ops
	// per client that the benchmark wrote beforehand, untimed, so set-up
	// includes recovery.
	preWrite int
}

func (s *admitSpec) journaled() bool { return s.preWrite > 0 }

// op is one admission-API operation and, once executed, its outcome.
type op struct {
	remove bool
	task   task.Task // admit
	handle uint64    // remove

	failed    bool
	hash      uint64 // FNV-64a of the response body
	accepted  bool
	newHandle uint64
	start     time.Time
	lat       time.Duration
	traced    bool // sent in a block followed by /healthz probes
}

// body is the op's JSON request body, exactly as a client sends it.
func (o *op) body() []byte {
	if o.remove {
		return append(strconv.AppendUint([]byte(`{"handle":`), o.handle, 10), '}')
	}
	b, _ := json.Marshal(admit.AdmitRequest{Name: o.task.Name, C: o.task.C, T: o.task.T, D: o.task.D})
	return b
}

func (o *op) path(cluster string) string {
	if o.remove {
		return "/v1/clusters/" + cluster + "/remove"
	}
	return "/v1/clusters/" + cluster + "/admit"
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// removedHash is the hash of admitd's response to a successful remove.
var removedHash = hashBytes([]byte("{\"removed\":true}\n"))

// taskStream is a client's seeded, lazily extended sequence of tasks drawn
// by internal/gen (log-uniform periods in [100, 10000]).
type taskStream struct {
	r     *rand.Rand
	cfg   gen.Config
	sc    gen.Scratch
	tasks []task.Task
}

func newTaskStream(seed int64, uMin, uMax float64) *taskStream {
	return &taskStream{
		r:   rand.New(rand.NewSource(seed)),
		cfg: gen.Config{TargetU: 4, UMin: uMin, UMax: uMax},
	}
}

func (s *taskStream) at(i int) task.Task {
	for i >= len(s.tasks) {
		ts, err := gen.TaskSetInto(s.r, s.cfg, &s.sc)
		if err != nil {
			panic("benchmark: task stream generator misconfigured: " + err.Error())
		}
		for _, t := range ts {
			t.Name = "t" + strconv.Itoa(len(s.tasks))
			s.tasks = append(s.tasks, t)
		}
	}
	return s.tasks[i]
}

// policy drives one closed-loop client: it picks the next op from the
// verdicts seen so far, so every op depends only on the seed and on the
// (deterministic) answers before it.
type policy struct {
	spec      *admitSpec
	cluster   string
	tasks     *taskStream
	next      int      // index of the next task to admit
	residents []uint64 // handles, oldest first
	rejected  bool     // the last admit was rejected
}

func (d *policy) nextOp() op {
	if len(d.residents) > 0 && ((d.spec.hold > 0 && len(d.residents) > d.spec.hold) || (d.spec.hold == 0 && d.rejected)) {
		return op{remove: true, handle: d.residents[0]}
	}
	return op{task: d.tasks.at(d.next)}
}

func (d *policy) observe(o *op) {
	switch {
	case o.remove:
		d.residents = d.residents[1:]
		d.rejected = false
	case o.accepted:
		d.next++
		d.residents = append(d.residents, o.newHandle)
		d.rejected = false
	default:
		d.next++
		d.rejected = true
	}
}

// filled reports whether the cluster is prefilled: holding its residents
// (churn) or at capacity, i.e. just rejected (saturate).
func (d *policy) filled() bool {
	if d.spec.hold > 0 {
		return len(d.residents) >= d.spec.hold
	}
	return d.rejected
}

func (d *policy) clone() *policy {
	c := *d
	c.residents = append([]uint64(nil), d.residents...)
	return &c
}

// clientLog is one client's record of one boot: the ops before the daemon
// booted (journaled untimed, shared by every boot), the prefill ops, and
// the timed phase.
type clientLog struct {
	cluster string
	history []op
	prefill []op
	phase   []op
}

// probeBlock is the length of the alternating traced and untraced op blocks
// of a probed phase.
const probeBlock = 64

// admitRun is one daemon lifetime: set-up, load, and its verification.
type admitRun struct {
	spec     *admitSpec
	logs     []*clientLog
	setup    float64   // seconds from launch until the load starts
	warmEnd  time.Time // ops starting before this are warm-up
	end      time.Time
	before   metricsSnapshot
	after    metricsSnapshot
	rssMB    float64
	daemonCP time.Duration // admitd CPU over the phase
	selfCP   time.Duration // benchmark CPU over the phase
	rtt      span          // /healthz probes (probed phases only)
	probeErr int           // failed /healthz probes
	checks   checks
}

// checks collects correctness-gate failures with their reasons.
type checks struct {
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// counts tallies the run's HTTP-driven ops (prefill, phase and /healthz
// probes) and how many of them failed.
func (r *admitRun) counts() (attempted, failed int) {
	attempted, failed = r.rtt.count+r.probeErr, r.probeErr
	for _, l := range r.logs {
		for _, ops := range [][]op{l.prefill, l.phase} {
			for i := range ops {
				attempted++
				if ops[i].failed {
					failed++
				}
			}
		}
	}
	return attempted, failed
}

// measured appends the admit and remove latencies (µs) of the ops sent
// after warm-up. Only ops whose block matches traced count: a probed phase
// alternates traced and untraced blocks, so both see the same machine at
// nearly the same time.
func (r *admitRun) measured(traced bool, admits, removes []float64) ([]float64, []float64) {
	for _, l := range r.logs {
		for i := range l.phase {
			o := &l.phase[i]
			if o.failed || o.traced != traced || o.start.Before(r.warmEnd) {
				continue
			}
			us := float64(o.lat) / float64(time.Microsecond)
			if o.remove {
				removes = append(removes, us)
			} else {
				admits = append(admits, us)
			}
		}
	}
	return admits, removes
}

func (r *admitRun) phaseOps() int {
	n := 0
	for _, l := range r.logs {
		n += len(l.phase)
	}
	return n
}

// admitPhase is a run's admission phase: one daemon boot per round.
type admitPhase []*admitRun

func (p admitPhase) measured(traced bool) (admits, removes []float64) {
	for _, r := range p {
		admits, removes = r.measured(traced, admits, removes)
	}
	return admits, removes
}

// window is the measured time after warm-up, summed over the boots.
func (p admitPhase) window() time.Duration {
	var d time.Duration
	for _, r := range p {
		d += r.end.Sub(r.warmEnd)
	}
	return d
}

// delta sums a daemon counter's growth over each boot's phase.
func (p admitPhase) delta(name string) float64 {
	var n int64
	for _, r := range p {
		n += r.after.delta(r.before, name)
	}
	return float64(n)
}

// histMean is the mean observation a daemon histogram gained over the
// boots' phases.
func (p admitPhase) histMean(name string) float64 {
	var count, sum int64
	for _, r := range p {
		count += r.after.hists[name][0] - r.before.hists[name][0]
		sum += r.after.hists[name][1] - r.before.hists[name][1]
	}
	return ratio(float64(sum), float64(count))
}

// atStart sums a daemon gauge as each boot's load began.
func (p admitPhase) atStart(name string) float64 {
	var n int64
	for _, r := range p {
		n += r.before.values[name]
	}
	return float64(n)
}

// admitFixture is what every boot of a run starts from: the clients'
// policies, and for a journaled daemon the pre-written journal.
type admitFixture struct {
	spec          *admitSpec
	ds            []*policy
	history       [][]op // per client, the pre-written ops
	golden        string // pre-written journal directory
	wantRecovered string // its writer's canonical digest
}

func newAdmitFixture(e *env, spec *admitSpec, seed int64) (*admitFixture, error) {
	fx := &admitFixture{spec: spec, history: make([][]op, spec.clients)}
	for i := 0; i < spec.clients; i++ {
		fx.ds = append(fx.ds, &policy{
			spec:    spec,
			cluster: fmt.Sprintf("%s-%d", spec.name, i),
			tasks:   newTaskStream(seed*7919+int64(i)*104729+1, spec.uMin, spec.uMax),
		})
	}
	if spec.journaled() {
		fx.golden = filepath.Join(e.work, "journal-golden")
		if err := fx.preWrite(filepath.Join(e.work, "journal-writer")); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// preWrite runs the pre-boot history in-process on a journaled service in
// dir and leaves a copy of its journal in fx.golden, remembering the
// writer's canonical digest, which the daemon must reproduce on recovery.
func (fx *admitFixture) preWrite(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	svc := admit.NewService(0)
	if _, err := svc.AttachJournal(admit.JournalConfig{Dir: dir, Fsync: admit.FsyncOff, SnapshotEvery: -1}); err != nil {
		return fmt.Errorf("pre-write journal: %w", err)
	}
	defer svc.Close()
	ctx := context.Background()
	for i, d := range fx.ds {
		c, err := svc.Create(ctx, d.cluster, fx.spec.m, "", 0)
		if err != nil {
			return err
		}
		for n := 0; n < fx.spec.preWrite; n++ {
			o := d.nextOp()
			if err := applyDirect(ctx, c, &o); err != nil {
				return err
			}
			if !o.remove && !o.accepted {
				// A rejection would seed the writer's rejection memo, which
				// recovery does not restore; the twins could then answer a
				// repeated question from a memo the daemon lacks.
				return fmt.Errorf("pre-write: %s rejected a task; the churn mix must stay light", d.cluster)
			}
			d.observe(&o)
			fx.history[i] = append(fx.history[i], o)
		}
	}
	fx.wantRecovered = digest(svc.CanonicalState())
	// Every append has reached the files (fsync off writes through the page
	// cache), and periodic snapshots are off, so the copy holds the whole
	// history as journal records; the deferred Close folds only the
	// writer's own directory into a snapshot.
	return copyDir(dir, fx.golden)
}

// applyDirect runs o in-process on c and fills its verdict.
func applyDirect(ctx context.Context, c *admit.Cluster, o *op) error {
	if o.remove {
		ok, err := c.Remove(ctx, o.handle)
		if err == nil && !ok {
			err = fmt.Errorf("remove %d: not resident", o.handle)
		}
		return err
	}
	res, err := c.Admit(ctx, o.task)
	o.accepted, o.newHandle = res.Accepted, res.Handle
	return err
}

// launched is a daemon ready for load: booted, recovered or given its
// clusters, and prefilled.
type launched struct {
	d       *daemon
	clients []*client
	live    []*policy // the clients' policies, positioned after the prefill
	setup   float64   // seconds from launch until ready for load
}

func (l *launched) close() {
	for _, c := range l.clients {
		c.close()
	}
	l.d.kill() // a no-op once stop has reaped it
}

// launch starts admitd (on a fresh copy of the pre-written journal when
// journaled) and times its set-up until the clusters are recovered or
// created and prefilled, appending the prefill ops to logs.
func (fx *admitFixture) launch(e *env, logs []*clientLog) (*launched, error) {
	spec := fx.spec
	var args []string
	if spec.journaled() {
		dir := filepath.Join(e.work, "journal-boot")
		if err := copyDir(fx.golden, dir); err != nil {
			return nil, err
		}
		// The group-commit fsync and the periodic snapshot's fsyncs run
		// under the journal's locks, so with the deployed -fsync batch and
		// snapshot cadence every admit's tail was this host's shared disk:
		// admit_p99_us swung 0.5–5 ms and admit_per_s 1.4–4.0k/s across ten
		// runs. The journal and its recovery stay; the device syncs, which
		// are the disk's and not the program's, are left out, and the
		// snapshot is timed on the journaled twin instead.
		args = []string{"-data", dir, "-fsync", "off", "-snapshot-every", "-1"}
	}
	l := &launched{live: make([]*policy, len(fx.ds))}
	for i, d := range fx.ds {
		l.live[i] = d.clone()
	}

	t0 := time.Now()
	d, err := startDaemon(e.admitd, e.work, args...)
	if err != nil {
		return nil, err
	}
	l.d = d
	for range l.live {
		l.clients = append(l.clients, newClient(d.addr))
	}
	if err := l.prefill(logs); err != nil {
		l.close()
		return nil, err
	}
	l.setup = time.Since(t0).Seconds()
	return l, nil
}

func (l *launched) prefill(logs []*clientLog) error {
	if err := l.clients[0].waitReady(); err != nil {
		return err
	}
	for i, dr := range l.live {
		if !dr.spec.journaled() {
			body := fmt.Sprintf(`{"name":%q,"m":%d}`, dr.cluster, dr.spec.m)
			status, _, err := l.clients[i].do(http.MethodPost, "/v1/clusters", []byte(body))
			if err == nil && status != http.StatusCreated {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				return fmt.Errorf("create %s: %w", dr.cluster, err)
			}
		}
		for !dr.filled() {
			o := dr.nextOp()
			l.clients[i].exec(&o, dr.cluster)
			logs[i].prefill = append(logs[i].prefill, o)
			if o.failed {
				return fmt.Errorf("prefill %s: op failed", dr.cluster)
			}
			dr.observe(&o)
		}
	}
	return nil
}

// setupOnly boots a daemon as boot does, stops it once it is ready for
// load, and returns its set-up time: set-up is a few short process starts
// and round trips, so a run times it more often than it runs load.
func (fx *admitFixture) setupOnly(e *env) (float64, error) {
	logs := make([]*clientLog, len(fx.ds))
	for i := range logs {
		logs[i] = &clientLog{}
	}
	l, err := fx.launch(e, logs)
	if err != nil {
		return 0, err
	}
	l.close()
	return l.setup, nil
}

// boot launches a daemon ready for load, drives the closed-loop clients
// for dur, stops it, and verifies every answer against an in-process twin.
// With probe set, every other block of probeBlock ops is traced: a /healthz
// round trip follows every fourth op of the block.
func (fx *admitFixture) boot(e *env, dur time.Duration, probe bool) (*admitRun, error) {
	spec := fx.spec
	run := &admitRun{spec: spec, logs: make([]*clientLog, len(fx.ds))}
	for i, d := range fx.ds {
		run.logs[i] = &clientLog{cluster: d.cluster, history: fx.history[i]}
	}
	l, err := fx.launch(e, run.logs)
	if err != nil {
		return nil, err
	}
	defer l.close()
	d, clients, live := l.d, l.clients, l.live
	run.setup = l.setup

	if spec.journaled() {
		got, err := clients[0].canonDigest()
		if err != nil {
			return nil, err
		}
		if got != fx.wantRecovered {
			run.checks.failf("%s: recovered canonical digest %s != writer's %s", spec.name, got[:12], fx.wantRecovered[:12])
		}
	}
	if run.before, err = clients[0].scrapeMetrics(); err != nil {
		return nil, err
	}

	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	start := time.Now()
	run.warmEnd = start.Add(dur / 10)
	run.end = start.Add(dur)
	var wg sync.WaitGroup
	rtts := make([]span, len(live))
	probeErrs := make([]int, len(live))
	for i := range live {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dr, c, log := live[i], clients[i], run.logs[i]
			for n := 0; time.Now().Before(run.end); n++ {
				o := dr.nextOp()
				o.traced = probe && (n/probeBlock)%2 == 1
				c.exec(&o, dr.cluster)
				log.phase = append(log.phase, o)
				if o.failed {
					return // the verdict is unknown, so the policy cannot go on
				}
				dr.observe(&o)
				if o.traced && n%4 == 3 {
					rt, err := c.healthz()
					if err != nil {
						probeErrs[i]++
						return
					}
					rtts[i].add(rt)
				}
			}
		}(i)
	}
	wg.Wait()
	run.end = time.Now()
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	run.selfCP = selfCPU() - self0
	run.daemonCP = cpu1 - cpu0
	for i := range rtts {
		run.rtt.total += rtts[i].total
		run.rtt.count += rtts[i].count
		run.probeErr += probeErrs[i]
	}

	if run.after, err = clients[0].scrapeMetrics(); err != nil {
		return nil, err
	}
	if run.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	gotCanon, err := clients[0].canonDigest()
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.close()
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	verifyAdmit(run, gotCanon)
	return run, nil
}

// twinCounters are the domain counters the daemon's /metrics deltas must
// reproduce exactly when the twin replays the same ops.
var twinCounters = []string{
	"admit.requests", "admit.accepted", "admit.rejected", "admit.removed", "admit.cache_hits",
	"rta.calls", "rta.iterations", "rta.cache.warm_starts", "partition.prefilter.hits",
}

func obsValues(names []string) map[string]int64 {
	m := make(map[string]int64, len(names))
	for _, n := range names {
		m[n] = obs.Value(n)
	}
	return m
}

// verifyAdmit replays every op of the run on an in-process twin service and
// engine and applies the correctness gates: each response equals the
// twin's byte for byte, the daemon's canonical digest equals the twin's,
// every final processor passes the cold RTA oracle, and the daemon's
// domain counts over the phase equal the twin's.
func verifyAdmit(run *admitRun, daemonCanon string) {
	spec := run.spec
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ctx := context.Background()
	svc := admit.NewService(0)
	cls := make([]*admit.Cluster, len(run.logs))
	for i, l := range run.logs {
		c, err := svc.Create(ctx, l.cluster, spec.m, "", 0)
		if err != nil {
			run.checks.failf("twin create %s: %v", l.cluster, err)
			return
		}
		cls[i] = c
		for j := range l.history {
			o := l.history[j]
			if err := applyDirect(ctx, c, &o); err != nil {
				run.checks.failf("twin history %s: %v", l.cluster, err)
				return
			}
		}
		for j := range l.prefill {
			checkTwinOp(run, ctx, c, &l.prefill[j])
		}
	}
	before := obsValues(twinCounters)
	for i, l := range run.logs {
		for j := range l.phase {
			checkTwinOp(run, ctx, cls[i], &l.phase[j])
		}
	}
	after := obsValues(twinCounters)
	for _, name := range twinCounters {
		if want, got := after[name]-before[name], run.after.delta(run.before, name); want != got {
			run.checks.failf("%s: daemon counted %s=%d over the phase, twin %d", spec.name, name, got, want)
		}
	}
	if spec.journaled() {
		appends := run.after.delta(run.before, "admit.journal.appends")
		want := (after["admit.accepted"] - before["admit.accepted"]) + (after["admit.removed"] - before["admit.removed"])
		if appends != want {
			run.checks.failf("%s: daemon journaled %d records over the phase, want accepted+removed=%d", spec.name, appends, want)
		}
	}
	twinCanon := svc.CanonicalState()
	if got := digest(twinCanon); got != daemonCanon {
		run.checks.failf("%s: daemon canonical digest %s != twin's %s", spec.name, daemonCanon[:12], got[:12])
	}

	// The engine twin carries the residents the service does not expose;
	// it must reproduce the service's canonical state before its
	// processors stand in for the daemon's under the cold oracle.
	engs := engineTwins(run)
	var canon []byte
	order := make([]int, len(run.logs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return run.logs[order[a]].cluster < run.logs[order[b]].cluster })
	for _, i := range order {
		canon = append(canon, run.logs[i].cluster...)
		canon = append(canon, 0)
		canon = engs[i].AppendCanonical(canon)
	}
	if !bytes.Equal(canon, twinCanon) {
		run.checks.failf("%s: engine twin diverged from the service twin", spec.name)
		return
	}
	for i, e := range engs {
		for q := 0; q < e.M(); q++ {
			if !rta.ProcessorSchedulable(e.Residents(q)) {
				run.checks.failf("%s: processor %d of %s fails the cold RTA oracle", spec.name, q, run.logs[i].cluster)
			}
		}
	}
}

// checkTwinOp runs a daemon-executed op on the twin and marks it failed
// when the daemon's response differs from the twin's.
func checkTwinOp(run *admitRun, ctx context.Context, c *admit.Cluster, o *op) {
	if o.failed {
		return
	}
	var want uint64
	if o.remove {
		if ok, err := c.Remove(ctx, o.handle); err != nil || !ok {
			o.failed = true
			return
		}
		want = removedHash
	} else {
		res, err := c.Admit(ctx, o.task)
		if err != nil {
			o.failed = true
			return
		}
		want = hashResult(res)
	}
	if want != o.hash {
		o.failed = true
		run.checks.failf("%s: response to %s differs from the twin's", run.spec.name, describe(o))
	}
}

func describe(o *op) string {
	if o.remove {
		return fmt.Sprintf("remove %d", o.handle)
	}
	return fmt.Sprintf("admit %s(C=%d,T=%d)", o.task.Name, o.task.C, o.task.T)
}

// hashResult hashes a Result encoded exactly as admitd writes it.
func hashResult(res admit.Result) uint64 {
	var buf bytes.Buffer
	encodeResult(&buf, res)
	return hashBytes(buf.Bytes())
}

func encodeResult(buf *bytes.Buffer, res admit.Result) {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(res); err != nil {
		panic("benchmark: cannot encode admit.Result: " + err.Error())
	}
}

// engineTwins replays every client's ops on a bare partition.Online.
func engineTwins(run *admitRun) []*partition.Online {
	engs := make([]*partition.Online, len(run.logs))
	for i, l := range run.logs {
		e, err := partition.NewOnline(run.spec.m, "", 0)
		if err != nil {
			panic("benchmark: " + err.Error())
		}
		for _, ops := range [][]op{l.history, l.prefill, l.phase} {
			for j := range ops {
				applyEngine(e, &ops[j])
			}
		}
		engs[i] = e
	}
	return engs
}

func applyEngine(e *partition.Online, o *op) (partition.Placement, error) {
	if o.remove {
		e.Remove(o.handle)
		return partition.Placement{}, nil
	}
	return e.Admit(o.task)
}
