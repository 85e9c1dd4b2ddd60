package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"triclust/internal/fault"
)

// Tombstone records that a topic was handed off to another shard at a
// given ownership epoch. The shard that gave the topic up persists one
// next to where the topic's snapshot used to live, so that — across
// restarts — it refuses writes for the topic and redirects clients to the
// recorded target instead of silently re-creating divergent state.
//
// Epoch invariants:
//
//   - A topic is created at epoch 0. Every completed hand-off increments
//     the epoch by exactly one, and the new epoch travels inside the
//     exported snapshot (the codec's epoch section).
//   - A shard holding a tombstone at epoch E accepts a restore of that
//     topic only from a snapshot with epoch > E: the topic may legally
//     come back (another hand-off), but a stale pre-move snapshot — equal
//     or lower epoch — is rejected, because accepting it would fork the
//     topic's history.
//   - A tombstone written before the hand-off's PUT is the fencing point:
//     from that moment the source refuses the topic's writes even if it
//     crashes mid-move, so no interleaving of crash and retry yields two
//     shards accepting writes for one topic.
type Tombstone struct {
	// Epoch is the ownership epoch the topic moved away at (the epoch
	// embedded in the snapshot installed on the target).
	Epoch uint64 `json:"epoch"`
	// Target is the peer the topic was handed to.
	Target string `json:"target"`
}

// tombstoneSuffix is the on-disk marker extension: <topic>.moved next to
// where <topic>.snap lived.
const tombstoneSuffix = ".moved"

// TombstonePath returns the on-disk path of a topic's hand-off marker
// under dir.
func TombstonePath(dir, topic string) string {
	return filepath.Join(dir, topic+tombstoneSuffix)
}

// WriteTombstone atomically and durably persists a hand-off marker
// (fault.WriteFileAtomic: temp file, fsync, rename, directory fsync).
// All syscalls go through fsys: the tombstone write is the hand-off's
// fencing point, so its crash states are part of the fault matrix.
func WriteTombstone(fsys fault.FS, dir, topic string, ts Tombstone) error {
	if fsys == nil {
		fsys = fault.OS
	}
	data, err := json.Marshal(ts)
	if err != nil {
		return err
	}
	return fault.WriteFileAtomic(fsys, "tombstone", "tombstone.dirsync", TombstonePath(dir, topic), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadTombstone loads a topic's hand-off marker. It returns os.ErrNotExist
// (via the underlying open) when no marker exists.
func ReadTombstone(dir, topic string) (Tombstone, error) {
	data, err := os.ReadFile(TombstonePath(dir, topic))
	if err != nil {
		return Tombstone{}, err
	}
	var ts Tombstone
	if err := json.Unmarshal(data, &ts); err != nil {
		return Tombstone{}, fmt.Errorf("cluster: tombstone %s: %w", topic, err)
	}
	if ts.Target == "" {
		return Tombstone{}, fmt.Errorf("cluster: tombstone %s names no target", topic)
	}
	return ts, nil
}

// RemoveTombstone deletes a topic's hand-off marker; missing is not an
// error.
func RemoveTombstone(fsys fault.FS, dir, topic string) error {
	if fsys == nil {
		fsys = fault.OS
	}
	err := fsys.Remove("tombstone.remove", TombstonePath(dir, topic))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// LoadTombstones scans dir for hand-off markers, returning topic name →
// tombstone. Undecodable markers are reported through warn and skipped —
// like a corrupt snapshot, one bad file must not keep a shard from
// starting.
func LoadTombstones(dir string, warn func(format string, args ...any)) (map[string]Tombstone, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Tombstone)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != tombstoneSuffix {
			continue
		}
		topic := e.Name()[:len(e.Name())-len(tombstoneSuffix)]
		ts, err := ReadTombstone(dir, topic)
		if err != nil {
			warn("skipping %s: %v", e.Name(), err)
			continue
		}
		out[topic] = ts
	}
	return out, nil
}
