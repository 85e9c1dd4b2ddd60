package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

// topicNameRe bounds topic names to a filesystem- and URL-safe alphabet,
// so a topic's snapshot file under -data-dir is always <name>.snap with
// no escaping (and no path traversal).
var topicNameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,127}$`)

func validTopicName(name string) error {
	if !topicNameRe.MatchString(name) {
		return fmt.Errorf("topic name %q must match %s", name, topicNameRe)
	}
	return nil
}

// journalOptions configure amortized durability: every batch becomes
// durable as one fsynced O(batch) journal record, and the O(state)
// snapshot is rewritten (compacting the journal) every Every batches —
// or sooner when the journal outgrows MaxBytes. Every <= 1 compacts
// after every batch.
type journalOptions struct {
	Every    int
	MaxBytes int64
}

// store persists topic state under a data directory: one <topic>.snap
// full snapshot per topic, written atomically (temp file + rename), plus
// an append-only <topic>.journal holding the batches processed since that
// snapshot (see internal/journal). A nil *store disables persistence.
type store struct {
	dir  string
	opts journalOptions
	// fs is the failpoint layer every durable syscall of this store (and
	// of the journals, tombstones, and replica files under its dir) goes
	// through — fault.OS in production, a fault.Script in the crash-point
	// matrix and the degraded-mode tests.
	fs fault.FS
	// quarantined counts the files the loader refused to serve —
	// quarantined snapshots/journals plus unreadable or unrecognized
	// strays. Mostly written by the startup scan, but a cluster move
	// retry can quarantine a journal at request time (resumeMove →
	// recoverJournal) while GET /v1/healthz reads the counter, hence
	// atomic. Exposing it means a restarted shard's operator (or the
	// cluster harness awaiting readiness) sees quarantine instead of
	// having to list the directory.
	quarantined atomic.Int64
}

func newStore(dir string, opts journalOptions, fsys fault.FS) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create data dir: %w", err)
	}
	return &store{dir: dir, opts: opts, fs: fsys}, nil
}

func (st *store) path(name string) string {
	return filepath.Join(st.dir, name+".snap")
}

func (st *store) journalPath(name string) string {
	return filepath.Join(st.dir, name+".journal")
}

// Replica files: a cold replica held for a peer is <topic>.rsnap (base
// snapshot bytes), <topic>.rjournal (CRC-framed tail extending it) and
// <topic>.rmeta (JSON replMeta). None of the suffixes collide with .snap
// or .journal, so loadAll never mistakes a replica for a served topic.
func (st *store) replSnapPath(name string) string {
	return filepath.Join(st.dir, name+".rsnap")
}

func (st *store) replJournalPath(name string) string {
	return filepath.Join(st.dir, name+".rjournal")
}

func (st *store) replMetaPath(name string) string {
	return filepath.Join(st.dir, name+".rmeta")
}

// save writes one topic's snapshot atomically (fault.WriteFileAtomic):
// a crash mid-write leaves the previous snapshot intact, never a torn
// file. It returns the CRC-32C of the written file — the identity a
// journal extending this snapshot records. An error wrapping
// fault.ErrDirNotSynced still returns the CRC: the file is in place.
func (st *store) save(name string, tp *triclust.Topic) (uint32, error) {
	var cw *journal.CRCWriter
	err := fault.WriteFileAtomic(st.fs, "persist.snap", dirSyncSite, st.path(name), func(w io.Writer) error {
		cw = journal.NewCRCWriter(w)
		return tp.Snapshot(cw)
	})
	if err != nil && !errors.Is(err, fault.ErrDirNotSynced) {
		return 0, err
	}
	return cw.Sum(), err
}

// writeAtomic durably replaces path with data (fault.WriteFileAtomic,
// sites area.tmp|write|sync|rename|cleanup and dirSyncSite).
func (st *store) writeAtomic(area, path string, data []byte) error {
	return fault.WriteFileAtomic(st.fs, area, dirSyncSite, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// dirSyncSite is the failpoint of every fsync of the data directory.
const dirSyncSite = "persist.dir.sync"

// syncDir fsyncs the data directory, making renames and newly created
// journal files durable.
func (st *store) syncDir() error {
	return st.fs.SyncDir(dirSyncSite, st.dir)
}

// quarantineName returns the first unoccupied quarantine filename for
// base (base.<suffix>, then .1, .2, …), or "" if none of the bounded
// candidates is free.
func quarantineName(dir, base, suffix string) string {
	for i := 0; i < 1000; i++ {
		cand := base + "." + suffix
		if i > 0 {
			cand = fmt.Sprintf("%s.%d", cand, i)
		}
		if _, err := os.Stat(filepath.Join(dir, cand)); os.IsNotExist(err) {
			return cand
		}
	}
	return ""
}

// quarantine renames a file aside under the first free base.<suffix>
// name, reporting what happened through warn and counting the file as
// quarantined either way (renamed or merely skipped, it is not served).
func (st *store) quarantine(name, suffix string, warn func(format string, args ...any), cause error) {
	st.quarantined.Add(1)
	q := quarantineName(st.dir, name, suffix)
	if q == "" {
		warn("skipping %s: %v (no free quarantine name)", name, cause)
		return
	}
	if err := st.fs.Rename("persist.quarantine.rename", filepath.Join(st.dir, name), filepath.Join(st.dir, q)); err != nil {
		warn("skipping %s: %v (quarantine failed: %v)", name, cause, err)
		return
	}
	warn("quarantined %s as %s: %v", name, q, cause)
}

// remove deletes a topic's snapshot and journal (if any).
func (st *store) remove(name string) {
	if st != nil {
		_ = st.fs.Remove("persist.remove.snap", st.path(name))
		_ = st.fs.Remove("persist.remove.journal", st.journalPath(name))
	}
}

// snapExists reports whether a topic's snapshot file is on disk (used to
// detect interrupted hand-offs: tombstone + snapshot = pending move).
func (st *store) snapExists(name string) bool {
	if st == nil {
		return false
	}
	_, err := os.Stat(st.path(name))
	return err == nil
}

// restoredTopic is one topic recovered from disk: the live topic plus
// how many journal records were replayed on top of its snapshot (> 0
// means the in-memory state is ahead of the on-disk snapshot and should
// be compacted).
type restoredTopic struct {
	tp       *triclust.Topic
	replayed int
}

// loadAll restores every *.snap file in the data directory, replaying
// each topic's journal tail on top of its snapshot. Undecodable
// snapshots (and stray files) are reported but skipped: one corrupt file
// must not keep the daemon from serving the healthy topics. Undecodable
// or mismatched journals are quarantined/ignored — the snapshot alone is
// served, which is exactly the state the journal's acked batches
// extended, minus records that can no longer be trusted.
func (st *store) loadAll(warn func(format string, args ...any)) (map[string]*restoredTopic, error) {
	if st == nil {
		return nil, nil
	}
	names, err := st.scan(".snap", warn)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*restoredTopic)
	for _, name := range names {
		rt, err := st.load(name, warn)
		if errors.Is(err, codec.ErrVersion) {
			// An old-format snapshot is not corrupt — it is intact data
			// this build cannot replay (e.g. a version-1 file whose
			// random-stream position belongs to the old generator).
			// Quarantine it under a suffix the loader ignores, so
			// re-creating the topic cannot atomically overwrite the only
			// copy of the old state. The quarantine name itself must not
			// clobber an earlier quarantined copy (possible after an
			// upgrade → rollback → upgrade cycle), so pick the first free
			// slot.
			st.quarantine(name+".snap", "unsupported-version", warn, err)
			continue
		}
		if err != nil {
			st.quarantined.Add(1)
			warn("skipping %s.snap: %v", name, err)
			continue
		}
		out[name] = rt
	}
	return out, nil
}

// scan lists the topic names with a <name><suffix> file in the data
// directory. A file whose stem is not a valid topic name is reported
// through warn and counted as quarantined.
func (st *store) scan(suffix string, warn func(format string, args ...any)) ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), suffix)
		if err := validTopicName(name); err != nil {
			st.quarantined.Add(1)
			warn("skipping %s: %v", e.Name(), err)
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// load rebuilds one topic from its on-disk state — snapshot plus
// verified journal tail — exactly as a restart would. It is the recovery
// behind startup, the rollback reload after a failed journal append, and
// a resumed hand-off.
func (st *store) load(name string, warn func(format string, args ...any)) (*restoredTopic, error) {
	data, err := st.fs.ReadFile("persist.snap.read", st.path(name))
	if err != nil {
		return nil, err
	}
	tp, err := triclust.Restore(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	rt := &restoredTopic{tp: tp}
	rt.replayed = st.recoverJournal(name, rt, data, warn)
	return rt, nil
}

// recoverJournal replays <name>.journal on top of the freshly restored
// topic, returning how many records were applied. Any problem — header
// undecodable, journal naming a different snapshot, replay divergence —
// resolves to "serve the snapshot alone": the journal is quarantined (or
// ignored when merely stale) and the topic re-restored from the snapshot
// bytes if replay had already touched it.
func (st *store) recoverJournal(name string, rt *restoredTopic, snapData []byte, warn func(format string, args ...any)) int {
	j, err := journal.Load(st.fs, st.journalPath(name))
	if err != nil {
		if !os.IsNotExist(err) {
			st.quarantine(name+".journal", "corrupt", warn, err)
		}
		return 0
	}
	if len(j.Records) == 0 {
		return 0
	}
	if j.SnapCRC != codec.Checksum(snapData) {
		// The journal extends a different (older or newer) snapshot —
		// e.g. a crash fell between snapshot rename and journal rotation.
		// Its records are already part of the snapshot or unverifiable;
		// either way the snapshot is the trustworthy state.
		warn("ignoring %s.journal: it extends a different snapshot than %s.snap", name, name)
		return 0
	}
	if j.Torn {
		warn("%s.journal has a torn final record (crash mid-append); replaying the %d intact records", name, len(j.Records))
	}
	if err := replay(rt.tp, j.Records); err != nil {
		st.quarantine(name+".journal", "corrupt", warn, err)
		// Replay already advanced the topic; rebuild it from the
		// snapshot alone.
		fresh, rerr := triclust.Restore(bytes.NewReader(snapData))
		if rerr != nil {
			warn("re-restore %s.snap after failed replay: %v", name, rerr)
			return 0
		}
		rt.tp = fresh
		return 0
	}
	return len(j.Records)
}

// replay applies journal records to tp in order, checking after each one
// that the topic reached the recorded stream fingerprint {batches,
// randDraws}: determinism makes a faithful replay bit-identical, so any
// divergence means the records cannot be trusted. It is the one replay
// behind startup recovery, the rollback reload, resumed hand-offs and
// replica promotion; each caller decides what a failure costs.
func replay(tp *triclust.Topic, recs []*journal.Record) error {
	for i, rec := range recs {
		out, err := tp.Process(rec.Time, rec.Tweets)
		if err == nil && out.Skipped {
			err = errors.New("recorded batch replayed as an empty-batch skip")
		}
		if err == nil {
			if b, d := tp.StreamPos(); b != rec.Batches || d != rec.RandDraws {
				err = fmt.Errorf("fingerprint mismatch: replayed (batches=%d, draws=%d), recorded (batches=%d, draws=%d)",
					b, d, rec.Batches, rec.RandDraws)
			}
		}
		if err != nil {
			return fmt.Errorf("replay of record %d/%d failed: %w", i+1, len(recs), err)
		}
	}
	return nil
}

// replicaFiles is one cold replica as it lies on disk: its meta, the base
// snapshot bytes (checked against the meta's CRC) and the tail records
// (checked to extend that base).
type replicaFiles struct {
	meta replMeta
	snap []byte
	tail []*journal.Record
}

// loadReplicaFiles reads and cross-checks a cold replica's three files —
// the one loader behind startup (loadReplica) and promotion.
func (st *store) loadReplicaFiles(name string) (*replicaFiles, error) {
	data, err := st.fs.ReadFile("repl.meta.read", st.replMetaPath(name))
	if err != nil {
		return nil, err
	}
	rf := &replicaFiles{}
	if err := json.Unmarshal(data, &rf.meta); err != nil {
		return nil, fmt.Errorf("meta undecodable: %w", err)
	}
	if rf.snap, err = st.fs.ReadFile("repl.snap.read", st.replSnapPath(name)); err != nil {
		return nil, err
	}
	if crc := codec.Checksum(rf.snap); crc != rf.meta.SnapCRC {
		return nil, fmt.Errorf("base snapshot CRC %08x does not match meta %08x", crc, rf.meta.SnapCRC)
	}
	j, err := journal.Load(st.fs, st.replJournalPath(name))
	if err != nil {
		return nil, fmt.Errorf("tail journal: %w", err)
	}
	if j.SnapCRC != rf.meta.SnapCRC {
		return nil, fmt.Errorf("tail journal extends snapshot %08x, meta names %08x", j.SnapCRC, rf.meta.SnapCRC)
	}
	rf.tail = j.Records
	return rf, nil
}
