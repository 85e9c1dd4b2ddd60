package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"triclust/internal/cluster"
	"triclust/internal/fault"
)

// TestTopicLifecycleTransitions drives every (state, event) pair through
// topic.transition and checks the lifecycle's rules: retired is
// absorbing, parked serves again only through a reload followed by a
// save, and a recovery on a retired topic leaves it retired.
func TestTopicLifecycleTransitions(t *testing.T) {
	states := []topicState{stServing, stDegraded, stParked, stRetired}
	events := []topicEvent{evDegrade, evPark, evReload, evSave, evRetire}
	want := map[topicState][]topicState{ // indexed by event, in order
		stServing:  {stDegraded, stParked, stServing, stServing, stRetired},
		stDegraded: {stDegraded, stParked, stDegraded, stServing, stRetired},
		stParked:   {stParked, stParked, stDegraded, stParked, stRetired},
		stRetired:  {stRetired, stRetired, stRetired, stRetired, stRetired},
	}
	run := func(from topicState, evs ...topicEvent) topicState {
		tp := &topic{name: "t"}
		tp.st.Store(int32(from))
		for _, ev := range evs {
			before := tp.state()
			if f, to := tp.transition(ev); f != before || to != tp.state() {
				t.Fatalf("transition(%d) reported %d→%d, state went %d→%d", ev, f, to, before, tp.state())
			}
		}
		return tp.state()
	}
	for _, from := range states {
		for i, ev := range events {
			if got := run(from, ev); got != want[from][i] {
				t.Errorf("state %d + event %d = %d, want %d", from, ev, got, want[from][i])
			}
		}
	}

	// Retired is absorbing: no sequence of events leaves it.
	for _, a := range events {
		for _, b := range events {
			if got := run(stRetired, a, b); got != stRetired {
				t.Errorf("retired + %d,%d = %d, want retired", a, b, got)
			}
		}
	}
	// Parked reaches serving only by a reload and then a save: no single
	// event does it, a save before the reload does not, the pair does.
	for _, ev := range events {
		if run(stParked, ev) == stServing {
			t.Errorf("parked + %d = serving without a reload and a save", ev)
		}
	}
	if got := run(stParked, evSave, evReload); got == stServing {
		t.Error("parked + save, reload = serving: the save came before the reload")
	}
	if got := run(stParked, evReload, evSave); got != stServing {
		t.Errorf("parked + reload, save = %d, want serving", got)
	}
	// A recovery (reload, save) on a retired topic leaves it retired.
	if got := run(stRetired, evReload, evSave); got != stRetired {
		t.Errorf("retired + recovery = %d, want retired", got)
	}
}

// TestCompactionFailureAcksDurableBatch: a batch that lands on a
// compaction point is durable once its journal record is fsynced, so a
// failed compaction snapshot must not fail it — the batch is acked, the
// journal kept, and a restart recovers it.
func TestCompactionFailureAcksDurableBatch(t *testing.T) {
	// Hit 1 of persist.snap.sync is the create's snapshot; hit 2 is the
	// compaction at batch 2.
	script := fault.NewScript(fault.Rule{Site: "persist.snap.sync", Hit: 2, Err: errors.New("injected snapshot fsync failure")})
	s, hs := faultServer(t, script, journalOptions{Every: 2, MaxBytes: 1 << 40}, storageOptions{})
	client := hs.Client()
	const name = "compact"
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	for day := 1; day <= 2; day++ {
		if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics/"+name+"/batches", degradeBatch(day)); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s, want 200", day, code, ec)
		}
	}
	if got := script.Hits("persist.snap.sync"); got != 2 {
		t.Fatalf("persist.snap.sync crossed %d times, want 2 (batch 2 must hit the compaction point)", got)
	}

	s2, err := newServer(s.store.dir, serverOptions{journal: journalOptions{Every: 2}}, t.Logf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	tp, _, _ := s2.placement(name)
	if tp == nil {
		t.Fatal("topic missing after restart")
	}
	if got := tp.eng().Batches(); got != 2 {
		t.Fatalf("restart recovered %d batches, want 2", got)
	}
}

// TestRepeatedCompactionFailureDegrades: a compaction that fails on every
// batch behind a journal that keeps appending must still count toward
// -degrade-after — each batch is acked (its record is durable), but once
// that many consecutive compactions have failed the topic degrades and
// refuses writes instead of growing the journal without bound, and the
// storage probe recovers it once the disk heals.
func TestRepeatedCompactionFailureDegrades(t *testing.T) {
	const degradeAfter = 3
	script := fault.NewScript()
	s, hs := faultServer(t, script, journalOptions{Every: 2, MaxBytes: 1 << 40},
		storageOptions{DegradeAfter: degradeAfter, ProbeInterval: 20 * time.Millisecond})
	client := hs.Client()
	const name = "compactfail"
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	// Hit 1 of persist.snap.sync was the create's snapshot; every later
	// one — each compaction and each probe save — fails.
	script.AddRule(fault.Rule{Site: "persist.snap.sync", Err: errors.New("injected snapshot fsync failure")})

	// Batch 1 only appends; batches 2..degradeAfter+1 each land on a
	// compaction point (the failed compaction leaves the journal in
	// place, so every later batch retries it) and are acked.
	batchURL := hs.URL + "/v1/topics/" + name + "/batches"
	day := 1
	for ; day <= degradeAfter+1; day++ {
		if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(day)); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s, want 200", day, code, ec)
		}
	}
	// (The probe may already have added failed saves of its own.)
	if got := script.Hits("persist.snap.sync"); got < 1+degradeAfter {
		t.Fatalf("persist.snap.sync crossed %d times, want at least %d (one create, %d failed compactions)", got, 1+degradeAfter, degradeAfter)
	}
	hr := awaitStorageState(t, client, hs.URL, "degraded")
	if len(hr.Storage.Degraded) != 1 || hr.Storage.Degraded[0] != name {
		t.Fatalf("healthz degraded topics = %v, want [%s]", hr.Storage.Degraded, name)
	}
	if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(day)); code != http.StatusServiceUnavailable || ec != codeStorageDegraded {
		t.Fatalf("batch %d after %d failed compactions: %d %s, want 503 %s", day, degradeAfter, code, ec, codeStorageDegraded)
	}

	script.ClearRules()
	awaitStorageState(t, client, hs.URL, "ok")
	if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(day)); code != http.StatusOK {
		t.Fatalf("batch %d after recovery: %d %s, want 200", day, code, ec)
	}
	s2, err := newServer(s.store.dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	if got := servedBatches(s2, name); got != day {
		t.Fatalf("restart serves %d batches, want %d", got, day)
	}
}

// TestResumedMoveRetargetSyncsDir: resuming an interrupted hand-off
// against a different target re-points the tombstone, and the re-pointed
// tombstone must be directory-durable like the first one.
func TestResumedMoveRetargetSyncsDir(t *testing.T) {
	var handlers [3]*shardHandler
	var hss [3]*httptest.Server
	var urls [3]string
	for i := range handlers {
		handlers[i] = &shardHandler{}
		hss[i] = httptest.NewServer(handlers[i])
		t.Cleanup(hss[i].Close)
		urls[i] = hss[i].URL
	}
	script := fault.NewScript()
	var servers [3]*server
	for i := range servers {
		cc, err := newClusterConfig(urls[i], strings.Join(urls[:], ","), 32, true)
		if err != nil {
			t.Fatalf("cluster config %d: %v", i, err)
		}
		cc.backoff = cluster.Backoff{Base: time.Millisecond, Max: time.Millisecond}
		var fs fault.FS
		if i == 0 {
			fs = script
		}
		s, err := newServer(t.TempDir(), serverOptions{journal: matrixJournalOpts(), cluster: cc, fs: fs}, t.Logf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		handlers[i].swap(s)
	}
	name := ""
	for i := 0; i < 100 && name == ""; i++ {
		if n := fmt.Sprintf("rt%02d", i); servers[0].cluster.ring.Owner(n) == urls[0] {
			name = n
		}
	}
	if name == "" {
		t.Fatal("no topic name owned by shard 0")
	}
	if rec := matrixServe(t, servers[0], "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	for day := 1; day <= 2; day++ {
		if rec := matrixServe(t, servers[0], "POST", "/v1/topics/"+name+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", day, rec.Code, rec.Body.String())
		}
	}
	want := captureTopic(t, servers[0], name)

	// The first target is unreachable: the install is ambiguous, so the
	// source keeps the fence and holds the hand-off for a resume.
	hss[1].Close()
	if rec := matrixServe(t, servers[0], "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: urls[1]}); rec.Code != http.StatusBadGateway {
		t.Fatalf("move to the dead shard: %d %s, want 502", rec.Code, rec.Body.String())
	}
	if !servers[0].pendingHandoff(name) {
		t.Fatal("the ambiguous hand-off is not pending")
	}

	dirSyncs := script.Hits("tombstone.dirsync")
	rec := matrixServe(t, servers[0], "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: urls[2]})
	if rec.Code != http.StatusOK {
		t.Fatalf("resumed move to a new target: %d %s", rec.Code, rec.Body.String())
	}
	var mr moveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || !mr.Resumed {
		t.Fatalf("move answered %s (%v), want Resumed", rec.Body.String(), err)
	}
	if got := script.Hits("tombstone.dirsync"); got <= dirSyncs {
		t.Fatalf("re-pointing the tombstone crossed tombstone.dirsync %d times before and %d after: the directory was not fsynced", dirSyncs, got)
	}
	ts, err := cluster.ReadTombstone(servers[0].store.dir, name)
	if err != nil || ts.Target != urls[2] {
		t.Fatalf("tombstone on disk = %+v (%v), want target %s", ts, err, urls[2])
	}
	got := captureTopic(t, servers[2], name)
	if got == nil || got.batches != want.batches || got.draws != want.draws {
		t.Fatalf("new target serves %+v, want position (%d,%d)", got, want.batches, want.draws)
	}
}

// defaultJournalOpts are the daemon's -journal-every and
// -journal-max-bytes defaults.
func defaultJournalOpts() journalOptions {
	return journalOptions{Every: 64, MaxBytes: 8 << 20}
}

// TestFirstBatchAfterRestartCompactsFirst: a restart that replays
// nothing opens no journal, so the first batch compacts before it is
// applied. A failed compaction refuses the batch before the solve — the
// view does not move, a retry succeeds once the disk heals, and the
// batch survives the next restart.
func TestFirstBatchAfterRestartCompactsFirst(t *testing.T) {
	dir := t.TempDir()
	s0, err := newServer(dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	const name = "first"
	if rec := matrixServe(t, s0, "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	_ = s0.Close()

	script := fault.NewScript(fault.Rule{Site: "persist.snap.sync", Hit: 1, Err: errors.New("injected snapshot fsync failure")})
	s1, err := newServer(dir, serverOptions{journal: defaultJournalOpts(), fs: script}, t.Logf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s1.Close()
	rec := matrixServe(t, s1, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), codeJournalWriteFailed) {
		t.Fatalf("first batch with a failing snapshot fsync: %d %s, want 503 %s", rec.Code, rec.Body.String(), codeJournalWriteFailed)
	}
	if got := s1.topics[name].eng().Batches(); got != 0 {
		t.Fatalf("refused batch moved the engine to %d batches, want 0", got)
	}
	if rec := matrixServe(t, s1, "GET", "/v1/topics/"+name, nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"batches":0`) {
		t.Fatalf("view after the refused batch: %d %s, want 0 batches", rec.Code, rec.Body.String())
	}

	script.ClearRules()
	if rec := matrixServe(t, s1, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1)); rec.Code != http.StatusOK {
		t.Fatalf("retry: %d %s, want 200", rec.Code, rec.Body.String())
	}
	s2, err := newServer(dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer s2.Close()
	if got := servedBatches(s2, name); got != 1 {
		t.Fatalf("second restart serves %d batches, want the topic at 1 batch", got)
	}
}

// TestJournalCreateFailureDegrades: a topic that cannot start a journal
// cannot make a batch durable, so it degrades like any other
// durable-write failure — instead of being snapshotted on every batch —
// and the storage probe recovers it once journals can be created again.
func TestJournalCreateFailureDegrades(t *testing.T) {
	script := fault.NewScript()
	s, hs := faultServer(t, script, journalOptions{Every: 1, MaxBytes: 1 << 40},
		storageOptions{DegradeAfter: 3, ProbeInterval: 20 * time.Millisecond})
	client := hs.Client()
	const name = "nojournal"
	if code, ec := errCode(t, client, "POST", hs.URL+"/v1/topics", degradeCreateReq(name)); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, ec)
	}
	injected := errors.New("injected journal failure")
	script.AddRule(fault.Rule{Site: "journal.rotate.truncate", Err: injected})
	script.AddRule(fault.Rule{Site: "journal.create.open", Err: injected})

	// Batch 1 is journaled; its compaction cannot re-head the journal,
	// which counts as failure 1 but leaves the batch acked.
	batchURL := hs.URL + "/v1/topics/" + name + "/batches"
	if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(1)); code != http.StatusOK {
		t.Fatalf("batch 1: %d %s, want 200", code, ec)
	}
	// No journal is open now: each attempt at batch 2 compacts first,
	// fails, and is refused before the solve — failures 2 and 3.
	for i := 0; i < 2; i++ {
		if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(2)); code != http.StatusServiceUnavailable || ec != codeJournalWriteFailed {
			t.Fatalf("batch 2 attempt %d: %d %s, want 503 %s", i+1, code, ec, codeJournalWriteFailed)
		}
	}
	if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(2)); code != http.StatusServiceUnavailable || ec != codeStorageDegraded {
		t.Fatalf("batch 2 after %d failures: %d %s, want 503 %s", 3, code, ec, codeStorageDegraded)
	}
	hr := awaitStorageState(t, client, hs.URL, "degraded")
	if len(hr.Storage.Degraded) != 1 || hr.Storage.Degraded[0] != name {
		t.Fatalf("healthz degraded topics = %v, want [%s]", hr.Storage.Degraded, name)
	}

	script.ClearRules()
	awaitStorageState(t, client, hs.URL, "ok")
	if code, ec := errCode(t, client, "POST", batchURL, degradeBatch(2)); code != http.StatusOK {
		t.Fatalf("batch 2 after recovery: %d %s, want 200", code, ec)
	}
	s2, err := newServer(s.store.dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	if got := servedBatches(s2, name); got != 2 {
		t.Fatalf("restart serves %d batches, want the topic at 2 batches", got)
	}
}

// TestSnapshotOnlyDataDirMigrates: a data dir holding snapshots and no
// journals (pre-journal builds leave one behind) restarts and serves;
// the first batch starts <topic>.journal, and a restart recovers every
// batch from the snapshot plus that journal.
func TestSnapshotOnlyDataDirMigrates(t *testing.T) {
	dir := t.TempDir()
	s0, err := newServer(dir, serverOptions{journal: journalOptions{Every: 1}}, t.Logf)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	const name = "legacy"
	if rec := matrixServe(t, s0, "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	for day := 1; day <= 2; day++ {
		if rec := matrixServe(t, s0, "POST", "/v1/topics/"+name+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", day, rec.Code, rec.Body.String())
		}
	}
	_ = s0.Close()
	jpath := filepath.Join(dir, name+".journal")
	if err := os.Remove(jpath); err != nil && !os.IsNotExist(err) {
		t.Fatalf("remove journal: %v", err)
	}

	s1, err := newServer(dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("restart over the snapshot-only dir: %v", err)
	}
	defer s1.Close()
	if rec := matrixServe(t, s1, "GET", "/v1/topics/"+name, nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"batches":2`) {
		t.Fatalf("snapshot-only dir serves %d %s, want 2 batches", rec.Code, rec.Body.String())
	}
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatalf("journal present before the first batch (%v)", err)
	}
	for day := 3; day <= 4; day++ {
		if rec := matrixServe(t, s1, "POST", "/v1/topics/"+name+"/batches", degradeBatch(day)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", day, rec.Code, rec.Body.String())
		}
	}
	if _, err := os.Stat(jpath); err != nil {
		t.Fatalf("the first batch started no journal: %v", err)
	}

	s2, err := newServer(dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	defer s2.Close()
	if got := servedBatches(s2, name); got != 4 {
		t.Fatalf("second restart serves %d batches, want the topic at 4 batches", got)
	}
}

// servedBatches is the batch count of the topic s serves under name, or
// -1 if it serves none.
func servedBatches(s *server, name string) int {
	tp, _, _ := s.placement(name)
	if tp == nil {
		return -1
	}
	return tp.eng().Batches()
}

// parkTopic fails name's next journal append and the rollback's
// re-read of the snapshot, so the topic ends parked with batch day in
// its engine and not on disk.
func parkTopic(t *testing.T, s *server, script *fault.Script, name string, day int) {
	t.Helper()
	script.AddRule(fault.Rule{Site: "journal.append.sync", Hit: script.Hits("journal.append.sync") + 1, Err: errors.New("injected append failure")})
	script.AddRule(fault.Rule{Site: "persist.snap.read", Err: errors.New("injected snapshot read failure")})
	rec := matrixServe(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(day))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch %d with append and rollback failing: %d %s, want 503", day, rec.Code, rec.Body.String())
	}
	if tp, _, _ := s.placement(name); tp == nil || tp.state() != stParked {
		t.Fatalf("topic %q is not parked", name)
	}
}

// TestShutdownSkipsParkedTopic: the final snapshot at graceful shutdown
// must not persist a parked topic's engine, which holds a batch that
// was refused and never made durable.
func TestShutdownSkipsParkedTopic(t *testing.T) {
	script := fault.NewScript()
	s, _ := faultServer(t, script, defaultJournalOpts(), storageOptions{ProbeInterval: time.Hour})
	const name = "shutdown"
	if rec := matrixServe(t, s, "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if rec := matrixServe(t, s, "POST", "/v1/topics/"+name+"/batches", degradeBatch(1)); rec.Code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", rec.Code, rec.Body.String())
	}
	parkTopic(t, s, script, name, 2)
	if err := s.snapshotAll(); err != nil {
		t.Fatalf("snapshotAll: %v", err)
	}
	_ = s.Close()

	s2, err := newServer(s.store.dir, serverOptions{journal: defaultJournalOpts()}, t.Logf)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	if got := servedBatches(s2, name); got != 1 {
		t.Fatalf("restart after shutdown serves %d batches, want the topic at its last durable batch (1)", got)
	}
}

// twoShards starts a two-shard cluster whose shard 0 writes through
// script, and returns the shards, their URLs and a topic name shard 0
// owns.
func twoShards(t *testing.T, script *fault.Script, repl *replOptions, prefix string) ([2]*server, [2]string, string) {
	t.Helper()
	var servers [2]*server
	var urls [2]string
	var handlers [2]*shardHandler
	for i := range handlers {
		handlers[i] = &shardHandler{}
		hs := httptest.NewServer(handlers[i])
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	fss := [2]fault.FS{script, nil}
	for i := range servers {
		cc, err := newClusterConfig(urls[i], strings.Join(urls[:], ","), 32, false)
		if err != nil {
			t.Fatalf("cluster config %d: %v", i, err)
		}
		s, err := newServer(t.TempDir(), serverOptions{
			journal: defaultJournalOpts(),
			cluster: cc,
			repl:    repl,
			fs:      fss[i],
			storage: storageOptions{ProbeInterval: time.Hour},
		}, t.Logf)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		s.start()
		t.Cleanup(func() { _ = s.Close() })
		servers[i] = s
		handlers[i].swap(s)
	}
	for i := 0; i < 100; i++ {
		if n := fmt.Sprintf("%s%02d", prefix, i); servers[0].cluster.ring.Owner(n) == urls[0] {
			return servers, urls, n
		}
	}
	t.Fatal("no topic name owned by shard 0")
	return servers, urls, ""
}

// TestMoveRefusesParkedTopic: a hand-off would export a parked topic's
// engine — a batch disk never vouched for — to the target, so the move
// is refused with storage_degraded and the target gets nothing.
func TestMoveRefusesParkedTopic(t *testing.T) {
	script := fault.NewScript()
	servers, urls, name := twoShards(t, script, nil, "mv")
	if rec := matrixServe(t, servers[0], "POST", "/v1/topics", degradeCreateReq(name)); rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if rec := matrixServe(t, servers[0], "POST", "/v1/topics/"+name+"/batches", degradeBatch(1)); rec.Code != http.StatusOK {
		t.Fatalf("batch 1: %d %s", rec.Code, rec.Body.String())
	}
	parkTopic(t, servers[0], script, name, 2)

	rec := matrixServe(t, servers[0], "POST", "/v1/cluster/move", moveRequest{Topic: name, Target: urls[1]})
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), codeStorageDegraded) {
		t.Fatalf("move of a parked topic: %d %s, want 503 %s", rec.Code, rec.Body.String(), codeStorageDegraded)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("refused move carries no Retry-After")
	}
	if tp, _, _ := servers[1].placement(name); tp != nil {
		t.Fatalf("the target serves the parked topic at %d batches", tp.eng().Batches())
	}
	if servers[0].pendingHandoff(name) {
		t.Fatal("the refused move left a pending hand-off")
	}
}

// TestResyncSkipsParkedTopic: the resync worker must not ship a parked
// primary's engine to its follower, which stays at the last durable
// batch.
func TestResyncSkipsParkedTopic(t *testing.T) {
	script := fault.NewScript()
	servers, urls, name := twoShards(t, script, &replOptions{Factor: 2, ProbeInterval: time.Hour}, "rs")
	sentinel := ""
	for i := 0; i < 100 && sentinel == ""; i++ {
		if n := fmt.Sprintf("sentinel%02d", i); servers[0].cluster.ring.Owner(n) == urls[0] {
			sentinel = n
		}
	}
	for _, n := range []string{name, sentinel} {
		if rec := matrixServe(t, servers[0], "POST", "/v1/topics", degradeCreateReq(n)); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", n, rec.Code, rec.Body.String())
		}
		if rec := matrixServe(t, servers[0], "POST", "/v1/topics/"+n+"/batches", degradeBatch(1)); rec.Code != http.StatusOK {
			t.Fatalf("batch 1 of %s: %d %s", n, rec.Code, rec.Body.String())
		}
	}
	if b, _ := replicaPos(t, servers[1], name); b != 1 {
		t.Fatalf("replica at %d batches before parking, want 1", b)
	}
	parkTopic(t, servers[0], script, name, 2)

	// Both followers fell behind (a lost ship, a peer outage) and are
	// queued for resync, the parked topic first. The one resync worker
	// drains the queue in order, so once the sentinel's follower is in
	// sync the parked topic's turn has passed.
	r := servers[0].repl
	for _, n := range []string{name, sentinel} {
		r.markUnsynced(n, urls[1])
	}
	r.enqueueResync(name)
	r.enqueueResync(sentinel)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := r.follower(sentinel, urls[1]); st.synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sentinel's resync never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b, _ := replicaPos(t, servers[1], name); b != 1 {
		t.Fatalf("resync shipped the parked engine: replica at %d batches, want the last durable 1", b)
	}
}
