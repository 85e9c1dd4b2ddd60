// Steady-state ingest-path acceptance tests and benchmark: a warm Topic
// fed structurally identical batches must not heap-allocate in the
// tokenize → canonicalize → graph-build → persist-adjacent bookkeeping —
// only the per-batch results that escape to the caller.
package triclust_test

import (
	"fmt"
	"testing"

	"triclust"
)

// hotTopic builds a warmed-up Topic plus a batch generator that feeds it
// structurally identical batches at increasing timestamps, so steady-state
// per-Process allocation can be measured with testing.AllocsPerRun.
func hotTopic(tb testing.TB, batchTweets int) (*triclust.Topic, func() []triclust.Tweet, *int) {
	tb.Helper()
	const numUsers = 24
	users := make([]triclust.User, numUsers)
	for i := range users {
		users[i] = triclust.User{Name: fmt.Sprintf("u%d", i), Label: triclust.NoLabel}
	}
	cfg := triclust.DefaultOnlineConfig()
	cfg.MaxIter = 3
	tp, err := triclust.NewTopic(users, triclust.WithSolverConfig(cfg), triclust.WithMinDF(1))
	if err != nil {
		tb.Fatal(err)
	}
	texts := []string{
		"love the #prop37 labeling initiative great win",
		"no on prop37 bad law hurts farmers vote no",
		"the measure text reads like corporate greed honestly",
		"support local growers label gmo food now #yeson37",
		"this proposition is a mess of hidden costs",
		"proud to stand with science against fear mongering",
	}
	ts := 0
	next := func() []triclust.Tweet {
		tweets := make([]triclust.Tweet, batchTweets)
		for i := range tweets {
			tweets[i] = triclust.Tweet{
				Text:      texts[i%len(texts)],
				User:      (i*7 + ts) % numUsers,
				Time:      ts,
				RetweetOf: -1,
				Label:     triclust.NoLabel,
			}
			if i%5 == 4 {
				tweets[i].RetweetOf = i - 1
			}
		}
		return tweets
	}
	// Warm up: freeze the vocabulary and let every pooled buffer reach its
	// steady-state capacity.
	for i := 0; i < 8; i++ {
		if _, err := tp.Process(ts, next()); err != nil {
			tb.Fatal(err)
		}
		ts++
	}
	return tp, next, &ts
}

// TestProcessSteadyStateAllocs pins the allocation-free ingest path:
// tokenize → canonicalize → graph build → solve on a warm Topic must
// allocate only the escaping per-batch results. Before the pooled
// tokenizer, arena-backed snapshot builder and persistent solver scratch
// this measured ~346 allocations per call at this batch shape; the bound
// asserts the required ≥5× reduction with headroom (measured: ~28, plus
// 4 from the conformance gate — the escaping verdict, its score list,
// and the per-view report — which had a +8 budget).
func TestProcessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; absolute counts only hold without -race")
	}
	tp, next, ts := hotTopic(t, 20)
	batch := next()
	// 200 runs, not 50: a GC landing mid-measurement (likelier when the
	// whole test tree shares one CPU) clears the pools, and the one-time
	// refill must amortize below the bound instead of tripping it.
	allocs := testing.AllocsPerRun(200, func() {
		for i := range batch {
			batch[i].Tokens = nil
		}
		if _, err := tp.Process(*ts, batch); err != nil {
			t.Fatal(err)
		}
		*ts++
	})
	t.Logf("allocs per Process (warm topic, 20 tweets): %.1f", allocs)
	if allocs > 64 {
		t.Fatalf("warm Topic.Process allocates %.1f times per batch, want <= 64 (seed behaviour was ~346)", allocs)
	}
}

// TestReadPathAllocs pins the lock-free read path: loading a view and
// answering a user-estimate query from it is a pointer load plus array
// indexing — zero heap allocations, even while the topic keeps ingesting
// between measurements.
func TestReadPathAllocs(t *testing.T) {
	tp, next, ts := hotTopic(t, 20)
	if _, err := tp.Process(*ts, next()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		v := tp.ReadView()
		for u := 0; u < v.Users(); u++ {
			if _, ok := v.UserEstimate(u); ok {
				_ = v.Convergence()
			}
		}
		_, _ = v.StreamPos()
		_ = v.FeatureSentiments()
	})
	if allocs > 0 {
		t.Fatalf("read path allocates %.1f times per full view scan, want 0", allocs)
	}
}

func BenchmarkProcessWarm(b *testing.B) {
	tp, next, ts := hotTopic(b, 20)
	batch := next()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j].Tokens = nil
		}
		if _, err := tp.Process(*ts, batch); err != nil {
			b.Fatal(err)
		}
		*ts++
	}
}
