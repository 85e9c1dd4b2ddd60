package engine

import (
	"math"
	"testing"

	"triclust/internal/core"
	"triclust/internal/synth"
	"triclust/internal/tgraph"
)

// wideStream returns a universe of 1,100 users (four full pages and a
// partial fifth) and its tweets as one stream, retweet links dropped so
// any 8-tweet slice is a valid batch.
func wideStream(t testing.TB) ([]tgraph.User, []tgraph.Tweet) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = 5
	cfg.NumUsers = 1100
	cfg.Days = 4
	cfg.ElectionDay = -1
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	tweets := append([]tgraph.Tweet(nil), d.Corpus.Tweets...)
	for i := range tweets {
		tweets[i].RetweetOf = -1
	}
	return d.Corpus.Users, tweets
}

// checkView holds v to a full rebuild from the solver: every user's
// known flag, estimate and raw row match the solver's last row, the
// known count matches, and Delta is bit-identical to viewDelta's full
// scan against prev.
func checkView(t *testing.T, label string, s *Session, v, prev *View) {
	t.Helper()
	if got, want := math.Float64bits(v.Delta), math.Float64bits(viewDelta(v, prev)); got != want {
		t.Fatalf("%s: Delta %v (bits %x), full scan %v (bits %x)", label, v.Delta, got, viewDelta(v, prev), want)
	}
	if got, want := v.KnownUsers, s.KnownUsers(); got != want {
		t.Fatalf("%s: KnownUsers %d, solver knows %d", label, got, want)
	}
	for u := 0; u < v.NumUsers; u++ {
		row := s.online.LastUserEstimate(u)
		est, ok := v.UserEstimate(u)
		if ok != (row != nil) {
			t.Fatalf("%s: user %d known=%v, solver row %v", label, u, ok, row)
		}
		if !ok {
			continue
		}
		if want := LabelRow(row); est != want {
			t.Fatalf("%s: user %d estimate %+v, solver labels %+v", label, u, est, want)
		}
		p, i := v.pages[u>>pageShift], u&pageMask
		for j, x := range row {
			if math.Float64bits(p.rows[i*v.K+j]) != math.Float64bits(x) {
				t.Fatalf("%s: user %d row %v, solver row %v", label, u, p.rows[i*v.K:(i+1)*v.K], row)
			}
		}
	}
}

// checkSharing asserts the copy-on-write rule: a page holding one of the
// batch's active users is a fresh clone, every other page is prev's.
func checkSharing(t *testing.T, label string, v, prev *View, active []int) {
	t.Helper()
	touched := make(map[int]bool)
	for _, u := range active {
		touched[u>>pageShift] = true
	}
	for pi := range v.pages {
		shared := v.pages[pi] == prev.pages[pi]
		if touched[pi] == shared {
			t.Fatalf("%s: page %d shared=%v, touched by the batch=%v", label, pi, shared, touched[pi])
		}
	}
}

// checkRebuilt asserts that no page of v is shared with prev (a full
// build).
func checkRebuilt(t *testing.T, label string, v, prev *View) {
	t.Helper()
	for pi := range v.pages {
		if v.pages[pi] != nil && v.pages[pi] == prev.pages[pi] {
			t.Fatalf("%s: page %d shared with another session's view", label, pi)
		}
	}
}

// TestIncrementalViewMatchesFullScan streams a 1,100-user universe in
// 8-tweet batches and checks every published view against a full
// rebuild, across the events that keep a view eligible for the
// incremental path (a skipped batch, WithEpoch, an offline FitCorpus
// publish) and those that must not (a restored session, a session that
// ran a universe ahead of its views).
func TestIncrementalViewMatchesFullScan(t *testing.T) {
	users, tweets := wideStream(t)
	if n := len(users); n <= 3*pageSize || n%pageSize == 0 {
		t.Fatalf("universe of %d users: want more than 3 pages and a partial last page", n)
	}
	s := NewModel(fastConfig()).NewSession(users)
	v := s.BuildView(nil, nil, 0)
	checkView(t, "initial", s, v, nil)

	ts, next := 0, 0
	nextBatch := func() []tgraph.Tweet {
		if (next+1)*8 > len(tweets) {
			t.Fatalf("stream exhausted after %d batches", next)
		}
		batch := append([]tgraph.Tweet(nil), tweets[next*8:(next+1)*8]...)
		next++
		ts++
		for i := range batch {
			batch[i].Time = ts
		}
		return batch
	}

	var epoch uint64
	var first *View
	var firstEst []Sentiment
	for b := 0; b < 160; b++ {
		switch b {
		case 40:
			// A skipped batch carries the view over; the next build
			// still extends it.
			if out, err := s.Process(ts+1, nil); err != nil || !out.Skipped {
				t.Fatalf("empty batch: %+v, %v", out, err)
			}
			v = v.WithSkip()
		case 60:
			epoch = 7
			v = v.WithEpoch(epoch)
		case 80:
			// An offline fit publishes new feature sentiments and
			// records no user: every page is shared.
			out, err := s.Model().FitCorpus(&tgraph.Corpus{Users: users, Tweets: tweets[:200]})
			if err != nil {
				t.Fatalf("FitCorpus: %v", err)
			}
			prev := v
			v = s.BuildView(out.Res.Sf, prev, epoch)
			checkView(t, "fit", s, v, prev)
			checkSharing(t, "fit", v, prev, nil)
		case 100:
			// A restored session continues the stream; its first view
			// cannot extend the old session's and is rebuilt in full.
			rs, err := RestoreSession(s.ExportState())
			if err != nil {
				t.Fatalf("RestoreSession: %v", err)
			}
			s = rs
			prev := v
			v = s.BuildView(nil, prev, epoch)
			checkView(t, "restore", s, v, prev)
			checkRebuilt(t, "restore", v, prev)
		}
		batch := nextBatch()
		out, err := s.Process(ts, batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		prev := v
		v = s.BuildView(out.Res.Sf, prev, epoch)
		checkView(t, "batch", s, v, prev)
		checkSharing(t, "batch", v, prev, out.Active)
		if v.Epoch != epoch || v.Batches != s.Batches() {
			t.Fatalf("batch %d: view epoch %d batches %d, want %d/%d", b, v.Epoch, v.Batches, epoch, s.Batches())
		}
		if first == nil {
			first = v
			for u := 0; u < v.NumUsers; u++ {
				est, _ := v.UserEstimate(u)
				firstEst = append(firstEst, est)
			}
		}
	}
	if v.KnownUsers < 600 {
		t.Fatalf("stream reached only %d users", v.KnownUsers)
	}
	// Views are immutable: no later copy-on-write build wrote into a
	// page the first view still holds.
	for u, want := range firstEst {
		if est, _ := first.UserEstimate(u); est != want {
			t.Fatalf("user %d of the first view changed after publication: %+v, was %+v", u, est, want)
		}
	}

	// A session that runs a universe's worth of users ahead of its views
	// drops its recorded list; the next build is full and still exact.
	prev := v
	for overrun := false; !overrun; {
		batch := nextBatch()
		if _, err := s.Process(ts, batch); err != nil {
			t.Fatalf("overrun batch: %v", err)
		}
		overrun = len(s.recorded) == 0
	}
	v = s.BuildView(nil, prev, epoch)
	checkView(t, "overrun", s, v, prev)
	checkRebuilt(t, "overrun", v, prev)
}

// warmWideSession returns a session over n users, every one of them with
// a recorded estimate (the vocabulary frozen by a real first batch), and
// a pool of tweets to draw later batches from.
func warmWideSession(b *testing.B, n int) (*Session, []tgraph.Tweet) {
	b.Helper()
	d := testDataset(b, 1)
	s := NewModel(fastConfig()).NewSession(make([]tgraph.User, n))
	if _, err := s.Process(0, dayBatch(d, 0)); err != nil {
		b.Fatal(err)
	}
	st := s.ExportState()
	k := st.Config.K
	hist := st.Online.UserHist[:0:0]
	for u, known := 0, st.Online.UserHist; u < n; u++ {
		if len(known) > 0 && known[0].User == u {
			hist = append(hist, known[0])
			known = known[1:]
			continue
		}
		row := make([]float64, k)
		for j := range row {
			row[j] = float64(1 + (u+j)%5)
		}
		hist = append(hist, core.UserSnapshotState{User: u, Time: 0, Row: row})
	}
	st.Online.UserHist = hist
	s, err := RestoreSession(st)
	if err != nil {
		b.Fatal(err)
	}
	return s, dayBatch(d, 1)
}

var viewSink *View

// BenchmarkBuildView publishes the view after an 8-user batch on a warm
// topic whose every user has history; only BuildView is timed. The
// copy-on-write pages make its cost independent of the universe size,
// so the two sub-benchmarks should read alike.
func BenchmarkBuildView(b *testing.B) {
	for _, bc := range []struct {
		name  string
		users int
	}{{"universe-20k", 20_000}, {"universe-200k", 200_000}} {
		b.Run(bc.name, func(b *testing.B) {
			s, pool := warmWideSession(b, bc.users)
			v := s.BuildView(nil, nil, 0)
			batch := make([]tgraph.Tweet, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range batch {
					batch[j] = pool[(i*8+j)%len(pool)]
					batch[j].Time = i + 1
					batch[j].User = (i*8 + j) * 7919 % bc.users
				}
				out, err := s.Process(i+1, batch)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				v = s.BuildView(out.Res.Sf, v, 0)
			}
			viewSink = v
		})
	}
}
