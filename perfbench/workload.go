package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"triclust/internal/codec"
	"triclust/internal/synth"
	"triclust/internal/tgraph"
)

// workload is one traffic mix against a single topic. Every workload
// runs the same phases (see run.go); the fields below set its shape.
type workload struct {
	name string
	// users is the topic's user universe; perBatch the tweets in each
	// measured batch.
	users, perBatch int
	// text sends raw tweet text in JSON bodies for the daemon to
	// tokenize; otherwise batches carry pre-tokenized tweets in the
	// binary frame format.
	text bool
	// corpus configures the synth generator the tweets are drawn from.
	corpus func(seed int64) synth.Config
	// conns is the connection cap of the client's transport.
	conns int

	// Closed loop (batchEvery == 0): batches back to back on one
	// connection.
	// Open loop (batchEvery > 0): connection 1 posts a batch every
	// batchEvery; connection 2 sends a reader op every readEvery, of
	// which every exportEvery-th is a snapshot export and every
	// featuresEvery-th a /features read, the rest user reads.
	batchEvery, readEvery      time.Duration
	exportEvery, featuresEvery int
}

func (w *workload) openLoop() bool { return w.batchEvery > 0 }

// workloads are the benchmark's traffic mixes, by name. BENCHMARK.json
// lists them with the reason each one exists.
var workloads = map[string]*workload{
	"ingest-wide": {
		name: "ingest-wide", users: 50_000, perBatch: 8, conns: 1,
		corpus: func(seed int64) synth.Config {
			c := baseCorpus(seed)
			c.NumUsers, c.Days, c.TweetsPerUserDay = 50_000, 4, 0.1
			return c
		},
	},
	"ingest-heavy": {
		name: "ingest-heavy", users: 200, perBatch: 300, text: true, conns: 1,
		corpus: func(seed int64) synth.Config {
			c := baseCorpus(seed)
			c.NumUsers, c.Days, c.TweetsPerUserDay = 200, 120, 0.8
			return c
		},
	},
	"read-mixed": {
		name: "read-mixed", users: 5000, perBatch: 50, conns: 2,
		corpus: func(seed int64) synth.Config {
			c := baseCorpus(seed)
			c.NumUsers, c.Days, c.TweetsPerUserDay = 5000, 20, 0.2
			return c
		},
		batchEvery: 14 * time.Millisecond, readEvery: 2 * time.Millisecond,
		exportEvery: 500, featuresEvery: 100,
	},
}

// baseCorpus is the synth configuration every workload starts from:
// stances fixed for the whole stream (no evolving users, no churn) so
// ground truth is one class per user, and no retweets, whose
// batch-local links would not survive chunking the corpus into batches.
func baseCorpus(seed int64) synth.Config {
	c := synth.DefaultConfig()
	c.Seed = seed
	c.ElectionDay, c.BurstMultiplier = -1, 1
	c.EvolveFrac, c.ChurnFrac, c.RetweetProb = 0, 0, 0
	c.LabeledUserFrac, c.LabeledTweetFrac = 0, 0
	return c
}

// inputs are a workload's generated requests for one seed. Batch i of
// the measured stream is a pure function of (seed, i), so the traced
// replay regenerates exactly the requests the daemon received.
type inputs struct {
	w    *workload
	seed int64
	ds   *synth.Dataset
	// names is the user universe; stance each user's planted class.
	names  []string
	stance []int
	// vocab is the vocabulary warm-up: documents of pre-tokenized words,
	// or the same words as texts when the workload sends raw text.
	vocab [][]string
}

func generate(w *workload, seed int64) (*inputs, error) {
	ds, err := synth.Generate(w.corpus(seed))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	if len(ds.Corpus.Tweets) == 0 {
		return nil, fmt.Errorf("generate corpus: no tweets")
	}
	in := &inputs{w: w, seed: seed, ds: ds}
	in.names = make([]string, w.users)
	for u := range in.names {
		in.names[u] = ds.Corpus.Users[u].Name
	}
	in.stance = ds.UserStancesAt(0)
	seen := map[string]bool{}
	for _, tw := range ds.Corpus.Tweets {
		for _, tok := range tw.Tokens {
			seen[tok] = true
		}
	}
	words := make([]string, 0, len(seen))
	for tok := range seen {
		words = append(words, tok)
	}
	sort.Strings(words)
	for off := 0; off < len(words); off += 64 {
		in.vocab = append(in.vocab, words[off:min(off+64, len(words))])
	}
	return in, nil
}

// warmup is the setup batch (time 0): one tweet per user, drawn from
// the tweets of the user's own class, so every user has history and
// every user read of the measured phase finds an estimate.
func (in *inputs) warmup() []tgraph.Tweet {
	byClass := map[int][]int{}
	for i, c := range in.ds.TweetClass {
		byClass[c] = append(byClass[c], i)
	}
	out := make([]tgraph.Tweet, len(in.names))
	for u := range out {
		pool := byClass[in.stance[u]]
		if len(pool) == 0 {
			pool = byClass[in.ds.TweetClass[0]]
		}
		out[u] = in.tweet(pool[u%len(pool)], u, 0)
	}
	return out
}

// batch returns measured batch i (i >= 1, sent with time i). Batches
// walk the corpus in order and wrap around when the stream outlives it.
func (in *inputs) batch(i int) []tgraph.Tweet {
	all := in.ds.Corpus.Tweets
	tweets := make([]tgraph.Tweet, in.w.perBatch)
	for j := range tweets {
		src := in.source(i, j)
		tweets[j] = in.tweet(src, all[src].User, i)
	}
	return tweets
}

// source is the corpus index of tweet j of batch i.
func (in *inputs) source(i, j int) int {
	return ((i-1)*in.w.perBatch + j) % len(in.ds.Corpus.Tweets)
}

// truth returns the planted class of each tweet of batch i.
func (in *inputs) truth(i int) []int {
	out := make([]int, in.w.perBatch)
	for j := range out {
		out[j] = in.ds.TweetClass[in.source(i, j)]
	}
	return out
}

// tweet builds the wire tweet for corpus tweet src posted by user at
// time t: its tokens, or for text workloads a raw text that tokenizes
// back to them (mixed case, hashtags, punctuation, mentions and links).
func (in *inputs) tweet(src, user, t int) tgraph.Tweet {
	tw := tgraph.Tweet{User: user, Time: t, RetweetOf: -1, Label: tgraph.NoLabel}
	toks := in.ds.Corpus.Tweets[src].Tokens
	if !in.w.text {
		tw.Tokens = toks
		return tw
	}
	r := mix(uint64(in.seed), uint64(src))
	pick := func(n uint64) uint64 { r = mix(r, 0); return r % n }
	var b strings.Builder
	if pick(4) == 0 {
		b.WriteString("@someone ")
	}
	for k, tok := range toks {
		if k > 0 {
			b.WriteByte(' ')
		}
		switch pick(6) {
		case 0:
			b.WriteString("#" + tok)
		case 1:
			b.WriteString(strings.ToUpper(tok[:1]) + tok[1:])
		case 2:
			b.WriteString(tok + ",")
		default:
			b.WriteString(tok)
		}
	}
	if pick(3) == 0 {
		fmt.Fprintf(&b, " https://t.co/%x", uint32(pick(1<<32)))
	}
	b.WriteString("!")
	tw.Text = b.String()
	return tw
}

// mix is the splitmix64 finalizer of a ^ b·φ: a cheap deterministic
// hash for the per-seed choices of the generated inputs.
func mix(a, b uint64) uint64 {
	z := a ^ (b+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// The daemon's JSON batch request schema.
type tweetSpec struct {
	Text      string   `json:"text,omitempty"`
	Tokens    []string `json:"tokens,omitempty"`
	User      int      `json:"user"`
	Time      *int     `json:"time,omitempty"`
	RetweetOf *int     `json:"retweet_of,omitempty"`
}

type batchRequest struct {
	Time   int         `json:"time"`
	Tweets []tweetSpec `json:"tweets"`
}

// body encodes a batch in the workload's wire format and returns it
// with its Content-Type.
func (in *inputs) body(t int, tweets []tgraph.Tweet) ([]byte, string, error) {
	if !in.w.text {
		b, err := codec.EncodeBatchRequest(t, tweets)
		return b, mediaBatch, err
	}
	req := batchRequest{Time: t, Tweets: make([]tweetSpec, len(tweets))}
	for i, tw := range tweets {
		req.Tweets[i] = tweetSpec{Text: tw.Text, Tokens: tw.Tokens, User: tw.User}
	}
	b, err := json.Marshal(req)
	return b, mediaJSON, err
}

// readUser is the user read by reader op j.
func (in *inputs) readUser(j int) int {
	return int(mix(uint64(in.seed)+1<<32, uint64(j)) % uint64(len(in.names)))
}

// readerOp is what reader op j of an open-loop workload does.
type readerOp int

const (
	opUser readerOp = iota
	opFeatures
	opExport
)

func (w *workload) readerOp(j int) readerOp {
	switch {
	case j%w.exportEvery == w.exportEvery/2:
		return opExport
	case j%w.featuresEvery == w.featuresEvery/2:
		return opFeatures
	}
	return opUser
}
