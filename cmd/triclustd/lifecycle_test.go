package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
