package admit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/task"
)

// Startup recovery (DESIGN.md §14). Per shard, the durable state is the
// last atomic snapshot (a quiescent cut at journal sequence snap.Seq) plus
// the journal tail. Recovery:
//
//  1. rebuilds every snapshotted cluster by restoring each resident's
//     *recorded* placement via Online.RestoreResident in handle order —
//     never by re-deciding placement, which would be unsound (the original
//     decisions saw intermediate states containing since-removed tasks) —
//     and re-derives the warm rta.ProcState caches as a side effect;
//  2. scans the journal, tolerating exactly one torn record at the tail —
//     a final line missing its newline terminator, the signature of a
//     crash mid-append: the torn bytes are truncated away and counted. A
//     malformed newline-terminated record anywhere (including the final
//     line: it was written whole, so an unparseable one is in-place
//     corruption, possibly of an fsync-acknowledged mutation), a sequence
//     gap, or a schema-version mismatch is corruption, and recovery
//     refuses to start rather than serve silently wrong state;
//  3. replays records with seq > snap.Seq through the real engine. Replayed
//     admissions re-run Online.Admit and must reproduce the journaled
//     handle and processor exactly — a free end-to-end integrity check that
//     the recovered snapshot state is the state the journal was written
//     against;
//  4. folds the replayed tail into a fresh snapshot, so the next crash
//     replays from here instead of accumulating history.
//
// Counter semantics after recovery: the durable counters (accepted,
// removed, and one request per replayed acceptance) are exact; the
// volatile traffic counters (rejections and the requests that carried
// them) restart from the last snapshot, because rejections are deliberately
// not journaled. A clean Close writes a final snapshot, so a clean restart
// restores Status byte-identically. Snapshots written while clusters still
// memoized rejections carry a "cacheHits" stats field; decoding ignores it,
// so they load unchanged at the same schema version.

// ErrCorrupt wraps journal/snapshot states that recovery refuses to load.
var ErrCorrupt = errors.New("admit: corrupt journal state")

// Recovery gauges: what the last AttachJournal rebuilt and how long it
// took. Gauges (not counters) because they describe the most recent
// recovery, which a scraper reads as current state, not accumulation.
// Registered in the Default registry at package init — safe because the
// batch harness never imports internal/admit, so its metric exports are
// unchanged.
var (
	gRecoverClusters  = obs.NewGauge("admit.recover.clusters")
	gRecoverResidents = obs.NewGauge("admit.recover.residents")
	gRecoverReplayed  = obs.NewGauge("admit.recover.replayed")
	gRecoverTornTails = obs.NewGauge("admit.recover.torn_tails")
	gRecoverDurUS     = obs.NewGauge("admit.recover.duration_us")
)

// RecoveryStats summarizes what AttachJournal rebuilt.
type RecoveryStats struct {
	// Clusters and Residents count the recovered registry contents.
	Clusters  int `json:"clusters"`
	Residents int `json:"residents"`
	// Replayed counts journal records applied on top of snapshots.
	Replayed int `json:"replayed"`
	// TornTails counts shards whose journal ended in a truncated-away
	// partial record (at most one per shard by construction).
	TornTails int `json:"tornTails"`
}

// AttachJournal makes the service durable: it recovers any prior state from
// cfg.Dir (created if missing), then journals every later mutation. It must
// be called on a fresh, empty service before any traffic; on error the
// service is unusable and the process should exit rather than serve
// unrecovered state.
func (s *Service) AttachJournal(cfg JournalConfig) (RecoveryStats, error) {
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	var rs RecoveryStats
	if s.j != nil {
		return rs, errors.New("admit: journal already attached")
	}
	if len(s.Names()) != 0 {
		return rs, errors.New("admit: AttachJournal requires an empty service")
	}
	if cfg.Dir == "" {
		return rs, errors.New("admit: journal directory must not be empty")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return rs, err
	}
	if err := s.checkMeta(cfg.Dir); err != nil {
		return rs, err
	}

	j := &Journal{
		cfg:    cfg,
		svc:    s,
		shards: make([]*shardJournal, len(s.shards)),
		stop:   make(chan struct{}),
		kick:   make(chan struct{}, 1),
	}
	needFold := make([]bool, len(s.shards))
	for i := range s.shards {
		sh := &shardJournal{idx: i, dir: cfg.Dir}
		fold, err := s.recoverShard(sh, &rs)
		if err != nil {
			for _, prev := range j.shards {
				if prev != nil && prev.file != nil {
					prev.file.Close()
				}
			}
			return rs, fmt.Errorf("shard %d: %w", i, err)
		}
		j.shards[i] = sh
		needFold[i] = fold
	}
	for _, c := range rs.countClusters(s) {
		c.j, c.jr = j, j.shards[s.shardIndex(c.name)]
	}
	s.j = j
	// Fold any replayed or torn tail into a fresh snapshot before taking
	// traffic, so the recovered state is durable at rest immediately. A
	// failure here (e.g. an injected rename fault) is not fatal: the WAL
	// that just recovered us is still on disk and still recovers us.
	for i, sh := range j.shards {
		if needFold[i] {
			_ = j.snapshotShard(sh)
		}
	}
	j.flusherWG.Add(1)
	go j.flusher()
	gRecoverClusters.Set(int64(rs.Clusters))
	gRecoverResidents.Set(int64(rs.Residents))
	gRecoverReplayed.Set(int64(rs.Replayed))
	gRecoverTornTails.Set(int64(rs.TornTails))
	if !t0.IsZero() {
		gRecoverDurUS.Set(time.Since(t0).Microseconds())
	}
	return rs, nil
}

// countClusters fills the cluster/resident totals and returns every
// recovered cluster so AttachJournal can wire its journal pointers.
func (rs *RecoveryStats) countClusters(s *Service) []*Cluster {
	var all []*Cluster
	for i := range s.shards {
		for _, c := range s.shards[i].clusters {
			all = append(all, c)
			rs.Clusters++
			rs.Residents += c.eng.Len()
		}
	}
	return all
}

// checkMeta verifies (or stamps) the data directory's shard-count meta
// file: the cluster→shard mapping is part of the on-disk layout, so
// reopening with a different shard count would scatter clusters into the
// wrong journals.
func (s *Service) checkMeta(dir string) error {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return writeFileAtomic(path, metaFile{Version: metaSchemaVersion, Shards: len(s.shards)})
	}
	if err != nil {
		return err
	}
	var meta metaFile
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("%w: meta.json: %v", ErrCorrupt, err)
	}
	if meta.Version != metaSchemaVersion {
		return fmt.Errorf("%w: meta.json schema v%d, want v%d", ErrCorrupt, meta.Version, metaSchemaVersion)
	}
	if meta.Shards != len(s.shards) {
		return fmt.Errorf("admit: data dir %s was written with %d shards, service has %d (shard count is part of the on-disk layout)",
			dir, meta.Shards, len(s.shards))
	}
	return nil
}

// recoverShard loads one shard's snapshot, replays its journal tail, and
// leaves sh.file open for appends. It reports whether the shard has WAL
// history worth folding into a fresh snapshot.
func (s *Service) recoverShard(sh *shardJournal, rs *RecoveryStats) (bool, error) {
	snapSeq, err := s.loadSnapshot(sh.dir, sh.idx)
	if err != nil {
		return false, err
	}
	sh.seq = snapSeq

	wal, err := os.ReadFile(walPath(sh.dir, sh.idx))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	goodLen, err := s.replayWAL(sh, wal, snapSeq, rs)
	if err != nil {
		return false, err
	}

	f, err := os.OpenFile(walPath(sh.dir, sh.idx), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return false, err
	}
	if err := f.Truncate(int64(goodLen)); err != nil {
		f.Close()
		return false, err
	}
	if _, err := f.Seek(int64(goodLen), io.SeekStart); err != nil {
		f.Close()
		return false, err
	}
	sh.file = f
	sh.off = int64(goodLen)
	return len(wal) > 0, nil
}

// loadSnapshot rebuilds a shard's clusters from its snapshot file (if any)
// and returns the snapshot's journal sequence high-water.
func (s *Service) loadSnapshot(dir string, idx int) (uint64, error) {
	data, err := os.ReadFile(snapPath(dir, idx))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if snap.Version != snapshotSchemaVersion {
		return 0, fmt.Errorf("%w: snapshot schema v%d, want v%d", ErrCorrupt, snap.Version, snapshotSchemaVersion)
	}
	if snap.Shard != idx {
		return 0, fmt.Errorf("%w: snapshot labeled shard %d in file of shard %d", ErrCorrupt, snap.Shard, idx)
	}
	reg := &s.shards[idx]
	for _, cs := range snap.Clusters {
		if s.shardIndex(cs.Name) != idx {
			return 0, fmt.Errorf("%w: snapshot carries cluster %q that hashes to another shard", ErrCorrupt, cs.Name)
		}
		if _, ok := reg.clusters[cs.Name]; ok {
			return 0, fmt.Errorf("%w: duplicate cluster %q in snapshot", ErrCorrupt, cs.Name)
		}
		eng, err := partition.NewOnline(cs.M, cs.Policy, cs.Surcharge)
		if err != nil {
			return 0, fmt.Errorf("%w: cluster %q: %v", ErrCorrupt, cs.Name, err)
		}
		for _, r := range cs.Residents {
			if err := eng.RestoreResident(r.P, r.H, r.C, r.T, r.D); err != nil {
				return 0, fmt.Errorf("%w: cluster %q handle %d: %v", ErrCorrupt, cs.Name, r.H, err)
			}
		}
		if err := eng.SetHandleSeq(cs.NextHandle); err != nil {
			return 0, fmt.Errorf("%w: cluster %q: %v", ErrCorrupt, cs.Name, err)
		}
		c := &Cluster{name: cs.Name, eng: eng}
		c.restoreStats(cs.Stats)
		reg.clusters[cs.Name] = c
	}
	return snap.Seq, nil
}

// replayWAL applies one shard's journal tail on top of its snapshot state.
// It returns the byte length of the valid prefix (the torn tail, if any, is
// excluded and will be truncated by the caller).
func (s *Service) replayWAL(sh *shardJournal, wal []byte, snapSeq uint64, rs *RecoveryStats) (int, error) {
	goodLen := 0
	prevSeq := uint64(0)
	for off := 0; off < len(wal); {
		nl := bytes.IndexByte(wal[off:], '\n')
		if nl < 0 {
			// No terminator: a crash mid-append left a partial record.
			cJournalTornTails.Inc()
			rs.TornTails++
			break
		}
		line := wal[off : off+nl]
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn append persists a prefix of record+'\n', and the record
			// bytes never contain a raw newline — so a newline-terminated
			// line was written whole, and failing to parse it means the
			// record was corrupted after the append (bit rot, partial page
			// persist). That may be an fsync-acknowledged mutation: refuse to
			// start rather than silently drop it. Only a tail with no
			// terminator (the break above the loop exit) is auto-repaired.
			return 0, fmt.Errorf("%w: malformed record at byte %d: %v", ErrCorrupt, off, err)
		}
		if rec.V != walSchemaVersion {
			return 0, fmt.Errorf("%w: record schema v%d, want v%d", ErrCorrupt, rec.V, walSchemaVersion)
		}
		if prevSeq == 0 {
			if rec.Seq == 0 || rec.Seq > snapSeq+1 {
				return 0, fmt.Errorf("%w: journal starts at seq %d but snapshot covers through %d (gap)", ErrCorrupt, rec.Seq, snapSeq)
			}
		} else if rec.Seq != prevSeq+1 {
			return 0, fmt.Errorf("%w: sequence gap %d → %d", ErrCorrupt, prevSeq, rec.Seq)
		}
		if rec.Seq > snapSeq {
			if err := s.applyRecord(sh.idx, rec); err != nil {
				return 0, err
			}
			cJournalReplayed.Inc()
			rs.Replayed++
		}
		if rec.Seq > sh.seq {
			sh.seq = rec.Seq
		}
		prevSeq = rec.Seq
		off += nl + 1
		goodLen = off
	}
	return goodLen, nil
}

// applyRecord replays one journal record through the real engine. Every
// replay is checked against what the journal recorded: a journaled
// admission must be re-accepted onto the same processor with the same
// handle, a journaled removal must find its resident, a journaled create
// must not collide — any disagreement means the on-disk state is not the
// state this journal was written against.
func (s *Service) applyRecord(shardIdx int, rec walRecord) error {
	if s.shardIndex(rec.Cluster) != shardIdx {
		return fmt.Errorf("%w: record for cluster %q in journal of shard %d", ErrCorrupt, rec.Cluster, shardIdx)
	}
	reg := &s.shards[shardIdx]
	switch rec.Op {
	case opCreate:
		if _, ok := reg.clusters[rec.Cluster]; ok {
			return fmt.Errorf("%w: replayed create of existing cluster %q", ErrCorrupt, rec.Cluster)
		}
		eng, err := partition.NewOnline(rec.M, rec.Policy, task.Time(rec.Surcharge))
		if err != nil {
			return fmt.Errorf("%w: replayed create of %q: %v", ErrCorrupt, rec.Cluster, err)
		}
		reg.clusters[rec.Cluster] = &Cluster{name: rec.Cluster, eng: eng}
	case opAdmit:
		c, ok := reg.clusters[rec.Cluster]
		if !ok {
			return fmt.Errorf("%w: replayed admit into unknown cluster %q", ErrCorrupt, rec.Cluster)
		}
		pl, err := c.eng.Admit(task.Task{Name: rec.Task, C: rec.C, T: rec.T, D: rec.D})
		if err != nil {
			return fmt.Errorf("%w: journaled admission (cluster %q, handle %d) re-rejected on replay: %v", ErrCorrupt, rec.Cluster, rec.Handle, err)
		}
		if pl.Handle != rec.Handle || pl.Proc != rec.Proc1-1 {
			return fmt.Errorf("%w: replayed admission diverged: journal says handle %d proc %d, engine says handle %d proc %d",
				ErrCorrupt, rec.Handle, rec.Proc1-1, pl.Handle, pl.Proc)
		}
		c.stats.Requests.Add(1)
		c.stats.Accepted.Add(1)
	case opRemove:
		c, ok := reg.clusters[rec.Cluster]
		if !ok {
			return fmt.Errorf("%w: replayed remove in unknown cluster %q", ErrCorrupt, rec.Cluster)
		}
		if !c.eng.Remove(rec.Handle) {
			return fmt.Errorf("%w: replayed remove of absent handle %d in cluster %q", ErrCorrupt, rec.Handle, rec.Cluster)
		}
		c.stats.Removed.Add(1)
	case opDelete:
		if _, ok := reg.clusters[rec.Cluster]; !ok {
			return fmt.Errorf("%w: replayed delete of unknown cluster %q", ErrCorrupt, rec.Cluster)
		}
		delete(reg.clusters, rec.Cluster)
	default:
		return fmt.Errorf("%w: unknown op %q", ErrCorrupt, rec.Op)
	}
	return nil
}
