package triclust_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"triclust"
	"triclust/internal/codec"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate the current-version golden snapshot fixture (only when deliberately changing the snapshot format)")

const (
	goldenPath = "testdata/golden_v2.snap"
	// legacyGoldenPath is a version-1 snapshot (draw-counted stdlib RNG,
	// no generator identifier). Version 2 cannot replay its random
	// stream, so restoring it must fail with a clean version error.
	legacyGoldenPath = "testdata/golden_v1.snap"
)

// goldenTopic builds the topic the golden fixture was generated from:
// a tiny fully deterministic stream (pre-tokenized tweets, fixed seed).
func goldenTopic(t *testing.T) *triclust.Topic {
	t.Helper()
	users := []triclust.User{
		{Name: "ann", Label: triclust.NoLabel},
		{Name: "bob", Label: triclust.NoLabel},
		{Name: "cyn", Label: triclust.NoLabel},
	}
	cfg := triclust.OnlineConfig{}
	cfg.MaxIter = 5
	cfg.Seed = 42
	tp, err := triclust.NewTopic(users,
		triclust.WithMinDF(1),
		triclust.WithSolverConfig(cfg))
	if err != nil {
		t.Fatalf("NewTopic: %v", err)
	}
	batches := [][]triclust.Tweet{
		{
			{Tokens: []string{"love", "prop37", "win"}, User: 0, Time: 0, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{"awful", "prop37", "scam"}, User: 1, Time: 0, RetweetOf: -1, Label: triclust.NoLabel},
		},
		{
			{Tokens: []string{"love", "win"}, User: 2, Time: 1, RetweetOf: -1, Label: triclust.NoLabel},
			{Tokens: []string{"awful", "scam"}, User: 1, Time: 1, RetweetOf: -1, Label: triclust.NoLabel},
		},
	}
	for day, batch := range batches {
		if _, err := tp.Process(day, batch); err != nil {
			t.Fatalf("golden batch %d: %v", day, err)
		}
	}
	return tp
}

// TestGoldenSnapshotCompat restores the checked-in version-1 snapshot
// fixture, guarding the codec against accidental format breaks: a change
// that can no longer read yesterday's snapshots fails here, not in a
// production restore. Run with -update-golden after a deliberate,
// version-bumped format change.
func TestGoldenSnapshotCompat(t *testing.T) {
	if *updateGolden {
		tp := goldenTopic(t)
		var buf bytes.Buffer
		if err := tp.Snapshot(&buf); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, buf.Len())
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v (generate with -update-golden)", err)
	}
	tp, err := triclust.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden snapshot no longer restores — codec format break? %v", err)
	}
	if tp.Batches() != 2 || tp.Users() != 3 {
		t.Fatalf("golden topic: %d batches, %d users", tp.Batches(), tp.Users())
	}
	wantVocab := []string{"awful", "love", "prop37", "scam", "win"}
	if got := tp.Vocabulary(); !reflect.DeepEqual(got, wantVocab) {
		t.Fatalf("golden vocabulary %v, want %v", got, wantVocab)
	}
	if last, ok := tp.LastTime(); !ok || last != 1 {
		t.Fatalf("golden last time %d/%v, want 1", last, ok)
	}
	for u := 0; u < 3; u++ {
		est, ok := tp.UserEstimate(u)
		if !ok || est.Confidence < 0 || est.Confidence > 1 {
			t.Fatalf("golden user %d estimate %+v ok=%v", u, est, ok)
		}
	}
	// The restored topic is live: it accepts the stream's next batch and
	// predicts from its restored factors.
	out, err := tp.Process(2, []triclust.Tweet{
		{Tokens: []string{"love", "prop37"}, User: 0, Time: 2, RetweetOf: -1, Label: triclust.NoLabel},
	})
	if err != nil {
		t.Fatalf("golden continuation: %v", err)
	}
	if out.Skipped || len(out.TweetSentiments) != 1 {
		t.Fatalf("golden continuation outcome %+v", out)
	}
	if _, err := tp.Predict([]string{"love this win"}); err != nil {
		t.Fatalf("golden predict: %v", err)
	}
}

// TestGoldenSnapshotBytesStable pins the encoder to the format's exact
// layout: the golden fixture, restored and snapshotted again, must come
// back byte for byte.
func TestGoldenSnapshotBytesStable(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden fixture: %v", err)
	}
	tp, err := triclust.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("restore golden fixture: %v", err)
	}
	var buf bytes.Buffer
	if err := tp.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("re-snapshot of the golden fixture differs: %d bytes, fixture %d", buf.Len(), len(data))
	}
}

// TestLegacySnapshotRejectedByVersion pins the compatibility story for
// pre-SplitMix64 snapshots: their recorded random-stream position belongs
// to a different generator, so they must be turned away with a
// self-describing version error — never half-parsed or silently replayed
// on the wrong stream.
func TestLegacySnapshotRejectedByVersion(t *testing.T) {
	data, err := os.ReadFile(legacyGoldenPath)
	if err != nil {
		t.Fatalf("read legacy fixture: %v", err)
	}
	_, err = triclust.Restore(bytes.NewReader(data))
	if !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("legacy v1 snapshot: got %v, want ErrVersion", err)
	}
}
