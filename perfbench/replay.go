package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"triclust"
	"triclust/internal/codec"
	"triclust/internal/core"
	"triclust/internal/engine"
	"triclust/internal/fault"
	"triclust/internal/journal"
	"triclust/internal/mat"
	"triclust/internal/tgraph"
)

// The daemon's journal defaults (-journal-every, -journal-max-bytes).
const (
	journalEvery    = 64
	journalMaxBytes = 8 << 20
)

// opKind is what one replayed request does.
type opKind int

const (
	opBatch opKind = iota
	opRead
	opExportSnap
)

// op is one request of the measured stream, in the order the daemon
// served it: batch i (1-based), user read j, or export j.
type op struct {
	kind opKind
	i    int
}

// replayer runs the daemon's per-request layer calls in-process, in the
// daemon's order, starting from the daemon's own topic state: batch
// decode, Session.Process, Session.BuildView, the journal append with
// fsync, compaction at the daemon's cadence, and the response encode
// (processBatch → runBatch → saveIfCurrent in cmd/triclustd); ExportState
// and codec.Encode for snapshot exports; View.UserEstimate for reads.
// With a nil tracer it records no spans.
//
// A verify-only replayer runs just the request decode and
// Session.Process, which is all the checks against the daemon's
// responses and end state need, and skips reads, exports and the
// layers that leave the topic state unchanged.
type replayer struct {
	in         *inputs
	tr         *tracer
	dir        string
	verifyOnly bool

	sess  *engine.Session
	view  *engine.View
	last  *core.Factors
	epoch uint64

	jw       *journal.Writer
	jRecords int
	// jOffset is the size the daemon's journal had beyond this one's at
	// the start: the setup warm-up frame, which this replay starts past.
	jOffset int64

	scratch []tgraph.Tweet
	enc     []byte
	buf     bytes.Buffer

	// classes are the tweet classes of every replayed batch, to compare
	// with the daemon's responses.
	classes [][]int
	// Exact per-batch counts.
	tweets, active, iterations, viewRows sample
	compactions                          int
}

func (r *replayer) snapPath() string    { return filepath.Join(r.dir, "bench.snap") }
func (r *replayer) journalPath() string { return filepath.Join(r.dir, "bench.journal") }

// newReplayer restores the daemon's post-setup snapshot into dir. The
// daemon has journaled the setup warm-up batch since its last
// compaction, so the replay's compaction count starts there too.
func newReplayer(in *inputs, setupSnap []byte, dir string, tr *tracer, verifyOnly bool) (*replayer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &replayer{in: in, tr: tr, dir: dir, verifyOnly: verifyOnly, jRecords: 1}
	st, err := codec.Decode(bytes.NewReader(setupSnap))
	if err != nil {
		return nil, fmt.Errorf("decode setup snapshot: %w", err)
	}
	if r.sess, err = engine.RestoreSession(st); err != nil {
		return nil, fmt.Errorf("restore setup snapshot: %w", err)
	}
	r.last, r.epoch = st.LastFactors, st.Epoch
	if verifyOnly {
		return r, nil
	}
	r.view = r.sess.BuildView(sfOf(r.last), nil, r.epoch)

	batches, draws := r.sess.Progress()
	frame, err := journal.EncodeFrame(&journal.Record{Time: 0, Tweets: in.warmup(), Batches: batches, RandDraws: draws})
	if err != nil {
		return nil, err
	}
	r.jOffset = int64(len(frame))
	if err := os.WriteFile(r.snapPath(), setupSnap, 0o644); err != nil {
		return nil, err
	}
	if r.jw, err = journal.Create(fault.OS, r.journalPath(), codec.Checksum(setupSnap)); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() {
	if r.jw != nil {
		r.jw.Close()
	}
}

func sfOf(f *core.Factors) *mat.Dense {
	if f == nil {
		return nil
	}
	return f.Sf
}

// run replays ops in order and returns the CPU time they took, the
// measure of the tracing overhead that time stolen from the guest does
// not distort.
func (r *replayer) run(ops []op) (time.Duration, error) {
	start, err := cpuTime()
	if err != nil {
		return 0, err
	}
	for k := 0; k < len(ops); k++ {
		if r.verifyOnly && ops[k].kind != opBatch {
			continue
		}
		var err error
		switch ops[k].kind {
		case opBatch:
			err = r.batch(int64(k), ops[k].i)
		case opExportSnap:
			err = r.export(int64(k))
		case opRead:
			n := 1
			for k+n < len(ops) && ops[k+n].kind == opRead {
				n++
			}
			r.reads(int64(k), ops[k:k+n])
			k += n - 1
		}
		if err != nil {
			return 0, err
		}
	}
	end, err := cpuTime()
	return end - start, err
}

// cpuTime is the CPU time, user plus system, this process has used.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// batch replays measured batch i exactly as the daemon served it.
func (r *replayer) batch(req int64, i int) error {
	body, _, err := r.in.body(i, r.in.batch(i))
	if err != nil {
		return err
	}
	tr := r.tr
	root := tr.begin("batch", req, -1)

	s := tr.begin("wire.decode", req, root)
	ts, tweets, err := r.decode(body)
	tr.end(s, int64(len(body)))
	if err != nil {
		return fmt.Errorf("batch %d: decode: %w", i, err)
	}

	s = tr.beginAlloc("engine.process", req, root)
	out, err := r.sess.Process(ts, tweets)
	tr.end(s, 0)
	if err != nil {
		return fmt.Errorf("batch %d: process: %w", i, err)
	}
	r.last = &out.Res.Factors
	cls := make([]int, len(out.TweetSentiments))
	for j, sen := range out.TweetSentiments {
		cls[j] = sen.Class
	}
	r.classes = append(r.classes, cls)
	if r.verifyOnly {
		return nil
	}

	s = tr.beginAlloc("engine.view", req, root)
	r.view = r.sess.BuildView(out.Res.Sf, r.view, r.epoch)
	tr.end(s, 0)

	s = tr.begin("journal.append", req, root)
	batches, draws := r.sess.Progress()
	frame, err := journal.EncodeFrame(&journal.Record{Time: ts, Tweets: tweets, Batches: batches, RandDraws: draws})
	if err == nil {
		err = r.jw.AppendFrames(frame)
	}
	tr.end(s, int64(len(frame)))
	if err != nil {
		return fmt.Errorf("batch %d: journal: %w", i, err)
	}
	r.jRecords++
	if r.jRecords >= journalEvery || r.jw.Size()+r.jOffset >= journalMaxBytes {
		s = tr.begin("codec.compact", req, root)
		n, err := r.compact()
		tr.end(s, n)
		if err != nil {
			return fmt.Errorf("batch %d: compact: %w", i, err)
		}
	}

	s = tr.begin("wire.encode", req, root)
	n, err := r.encode(ts, out)
	tr.end(s, int64(n))
	tr.end(root, 0)
	if err != nil {
		return fmt.Errorf("batch %d: encode: %w", i, err)
	}
	r.tweets = append(r.tweets, float64(len(tweets)))
	r.active = append(r.active, float64(len(out.Active)))
	r.iterations = append(r.iterations, float64(out.Res.Iterations))
	r.viewRows = append(r.viewRows, float64(r.view.KnownUsers))
	return nil
}

// decode is the daemon's request decode for the workload's format.
func (r *replayer) decode(body []byte) (int, []tgraph.Tweet, error) {
	if !r.in.w.text {
		ts, tweets, err := codec.DecodeBatchRequest(body, r.scratch[:0])
		r.scratch = tweets
		return ts, tweets, err
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, nil, err
	}
	tweets := r.scratch[:0]
	for _, sp := range req.Tweets {
		tw := tgraph.Tweet{Text: sp.Text, Tokens: sp.Tokens, User: sp.User, Time: req.Time, RetweetOf: -1, Label: tgraph.NoLabel}
		if sp.Time != nil {
			tw.Time = *sp.Time
		}
		if sp.RetweetOf != nil {
			tw.RetweetOf = *sp.RetweetOf
		}
		tweets = append(tweets, tw)
	}
	r.scratch = tweets
	return req.Time, tweets, nil
}

// The daemon's JSON batch response schema.
type sentimentJSON struct {
	Class      int     `json:"class"`
	ClassName  string  `json:"class_name"`
	Confidence float64 `json:"confidence"`
}

type userSentimentJSON struct {
	User int `json:"user"`
	sentimentJSON
}

type batchResponse struct {
	Time       int                 `json:"time"`
	Skipped    bool                `json:"skipped"`
	Iterations int                 `json:"iterations"`
	Converged  bool                `json:"converged"`
	Tweets     []sentimentJSON     `json:"tweets"`
	Users      []userSentimentJSON `json:"users"`
}

func toSentimentJSON(s engine.Sentiment) sentimentJSON {
	return sentimentJSON{Class: s.Class, ClassName: triclust.ClassName(s.Class), Confidence: s.Confidence}
}

// encode is the daemon's response encode for the workload's format and
// returns the encoded size.
func (r *replayer) encode(ts int, out *engine.Outcome) (int, error) {
	if !r.in.w.text {
		res := codec.BatchResult{Time: ts, Converged: out.Res.Converged, Iterations: out.Res.Iterations}
		for _, s := range out.TweetSentiments {
			res.Tweets = append(res.Tweets, codec.BatchSentiment{Class: s.Class, Confidence: s.Confidence})
		}
		for j, s := range out.UserSentiments {
			res.Users = append(res.Users, codec.BatchUserSentiment{User: out.Active[j], Class: s.Class, Confidence: s.Confidence})
		}
		r.enc = codec.AppendBatchResponse(r.enc[:0], &res)
		return len(r.enc), nil
	}
	resp := batchResponse{Time: ts, Iterations: out.Res.Iterations, Converged: out.Res.Converged,
		Tweets: make([]sentimentJSON, 0, len(out.TweetSentiments)), Users: make([]userSentimentJSON, 0, len(out.UserSentiments))}
	for _, s := range out.TweetSentiments {
		resp.Tweets = append(resp.Tweets, toSentimentJSON(s))
	}
	for j, s := range out.UserSentiments {
		resp.Users = append(resp.Users, userSentimentJSON{User: out.Active[j], sentimentJSON: toSentimentJSON(s)})
	}
	r.buf.Reset()
	err := json.NewEncoder(&r.buf).Encode(&resp)
	return r.buf.Len(), err
}

// state is the topic state as Topic.Snapshot exports it.
func (r *replayer) state() *engine.State {
	st := r.sess.ExportState()
	st.LastFactors, st.Epoch = r.last, r.epoch
	return st
}

// compact is the daemon's compaction point: the snapshot written to a
// temporary file, fsynced and renamed over the old one, the directory
// fsynced, and the journal rotated onto it. It returns the snapshot size.
func (r *replayer) compact() (int64, error) {
	tmp, err := fault.OS.CreateTemp("persist.snap.tmp", r.dir, "bench.snap.tmp*")
	if err != nil {
		return 0, err
	}
	defer fault.OS.Remove("persist.snap.cleanup", tmp.Name())
	cw := journal.NewCRCWriter(fault.SiteWriter(tmp, "persist.snap.write"))
	cnt := &countWriter{w: cw}
	if err := codec.Encode(cnt, r.state()); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync("persist.snap.sync"); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := fault.OS.Rename("persist.snap.rename", tmp.Name(), r.snapPath()); err != nil {
		return 0, err
	}
	if err := fault.OS.SyncDir("persist.dir.sync", r.dir); err != nil {
		return 0, err
	}
	r.compactions++
	r.jRecords, r.jOffset = 0, 0
	return cnt.n, r.jw.Rotate(cw.Sum())
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// export is GET …/snapshot: the state exported and encoded.
func (r *replayer) export(req int64) error {
	s := r.tr.begin("codec.export", req, -1)
	r.buf.Reset()
	err := codec.Encode(&r.buf, r.state())
	r.tr.end(s, int64(r.buf.Len()))
	return err
}

// snapshot returns the bytes GET …/snapshot would answer now.
func (r *replayer) snapshot() ([]byte, error) {
	var b bytes.Buffer
	err := codec.Encode(&b, r.state())
	return b.Bytes(), err
}

var estimateSink engine.Sentiment

// reads looks up the users of a run of read ops in the current view,
// timed as one span: a single lookup is too short for the clock.
func (r *replayer) reads(req int64, ops []op) {
	s := r.tr.begin("engine.read", req, -1)
	for _, o := range ops {
		estimateSink, _ = r.view.UserEstimate(r.in.readUser(o.i))
	}
	r.tr.end(s, 0)
	r.tr.setCount(s, len(ops))
}

// recovery is the daemon's restart path over the replay's own files:
// snapshot decode and restore, journal load, and the replay of the
// journal tail. It checks that recovery reaches the replay's position.
func (r *replayer) recovery(req int64) (replayed int, err error) {
	tr := r.tr
	root := tr.begin("recover", req, -1)
	defer tr.end(root, 0)

	s := tr.begin("recover.decode", req, root)
	data, err := os.ReadFile(r.snapPath())
	var st *engine.State
	if err == nil {
		st, err = codec.Decode(bytes.NewReader(data))
	}
	var sess *engine.Session
	if err == nil {
		sess, err = engine.RestoreSession(st)
	}
	tr.end(s, int64(len(data)))
	if err != nil {
		return 0, fmt.Errorf("recover snapshot: %w", err)
	}
	view := sess.BuildView(sfOf(st.LastFactors), nil, st.Epoch)

	s = tr.begin("recover.journal_load", req, root)
	j, err := journal.Load(fault.OS, r.journalPath())
	tr.end(s, 0)
	if err != nil {
		return 0, fmt.Errorf("recover journal: %w", err)
	}

	s = tr.begin("recover.replay", req, root)
	for _, rec := range j.Records {
		out, perr := sess.Process(rec.Time, rec.Tweets)
		if perr != nil {
			err = perr
			break
		}
		view = sess.BuildView(out.Res.Sf, view, st.Epoch)
	}
	tr.end(s, 0)
	tr.setCount(s, len(j.Records))
	if err != nil {
		return 0, fmt.Errorf("recover replay: %w", err)
	}
	gb, gd := sess.Progress()
	wb, wd := r.sess.Progress()
	if gb != wb || gd != wd {
		return 0, fmt.Errorf("recovery reached (batches %d, draws %d), replay is at (%d, %d)", gb, gd, wb, wd)
	}
	return len(j.Records), nil
}
