package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"triclust/internal/codec"
	"triclust/internal/fault"
	"triclust/internal/journal"
)

const topicName = "bench"

// topicOptions are the options every workload's topic is created with:
// every vocabulary word kept, and the solver capped at 10 iterations per
// batch. At the daemon's default of 100 a 300-tweet batch takes ~15 ms
// to solve, too slow for a run of at least minBatches batches to fit the
// benchmark's time budget; at 3, as cmd/loadgen's topics use, accuracy
// on a 200-user corpus splits across seeds between two outcomes (0.69
// or 0.85 of tweets), too unsteady for a quality gate.
var topicOptions = map[string]any{"min_df": 1, "max_iter": 10}

// minBatches is the fewest measured batches a run may carry: enough for
// ten samples beyond the p99.
const minBatches = 100 * minBeyond

// config is one benchmark run's settings.
type config struct {
	daemonBin string
	work      string // scratch directory of this run
	seconds   time.Duration
	procs     int
	setups    int
}

// daemonRun is what the untraced run against the live daemon observed.
type daemonRun struct {
	// setupWall and setupCPU are, per setup, the seconds from the
	// daemon's launch until the first measured op was ready, and the net
	// CPU time the daemon used in them.
	setupWall, setupCPU sample
	// Measured-phase timings: batches, and the user reads and exports
	// of an open loop.
	batches, reads, exports []timing
	wall                    time.Duration
	// readerLoop is every reader op of an open loop, in order.
	readerLoop []timing
	// The quiescent probe after the measured phase.
	probeReads, probeExports []timing
	// classes[i-1] are the tweet classes of batch i's response; truth
	// the planted classes of the same tweets.
	classes     [][]int
	pred, truth []int
	// measured is the number of batches of the measured phase; the
	// batches after them topped the journal up (see topUpJournal).
	measured int
	// setupSnap is the topic's snapshot right after setup, finalSnap and
	// finalETag its snapshot and validator at the end.
	setupSnap, finalSnap []byte
	finalETag            string
	// The daemon's CPU seconds, net of stolen time (see cpuMeter), over
	// the measured phase and over the probe's reads and exports.
	cpuS, readCPUS, exportCPUS float64
	// recover and recoverCPU are each recovery's wall time and the
	// restarted daemon's net CPU time until it served the recovered
	// state.
	recover, recoverCPU sample
	// rss are the daemon's resident-set samples over the measured phase
	// (MB), peakRSS its high-water mark.
	rss     sample
	peakRSS float64
	// stealPct is the share of the guest's busy CPU time the hypervisor
	// stole during the measured phase.
	stealPct          float64
	attempted, failed int64
}

// The quiescent probe after the measured phase of every workload: user
// reads, then snapshot exports until there are at least
// minProbeExports of them and they took at least minProbeExportTime.
const (
	probeReads         = 5000
	minProbeExports    = 10
	minProbeExportTime = 500 * time.Millisecond
)

// recoveries is the number of kill -9 recoveries a run times.
const recoveries = 3

// runDaemon performs every phase against a live triclustd: setup (done
// cfg.setups times, each on a fresh daemon), the measured phase, the
// quiescent probe, the journal top-up, the end-state capture, and the
// kill -9 recovery.
func runDaemon(ctx context.Context, cfg config, in *inputs) (*daemonRun, error) {
	res := &daemonRun{}
	var d *daemon
	var c *client
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for k := 0; k < cfg.setups; k++ {
		if d != nil {
			d.kill()
			c.close()
			res.attempted += c.attempted.Load()
			res.failed += c.failed.Load()
			if err := os.RemoveAll(dataDir(cfg, k-1)); err != nil {
				return nil, err
			}
		}
		meter, err := startCPU(nil)
		if err != nil {
			return nil, err
		}
		var secs float64
		d, c, secs, err = setup(ctx, cfg, in, k)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		res.setupWall = append(res.setupWall, secs)
		cpu, _, err := meter.stop(d)
		if err != nil {
			return nil, err
		}
		res.setupCPU = append(res.setupCPU, cpu)
	}
	defer func() {
		res.attempted += c.attempted.Load()
		res.failed += c.failed.Load()
	}()
	snap, err := c.do(ctx, "GET", topicPath("/snapshot"), "", "", nil)
	if err != nil {
		return nil, err
	}
	res.setupSnap = snap.body

	if err := measure(ctx, cfg, in, d, c, res); err != nil {
		return nil, err
	}
	if err := probe(ctx, in, d, c, res); err != nil {
		return nil, err
	}
	res.measured = len(res.classes)

	// kill -9, restart on the same data directory, and time until the
	// daemon serves the last acknowledged state; a few times, each with
	// the journal topped up to the same tail first.
	for k := 0; k < recoveries; k++ {
		if err := topUpJournal(ctx, cfg, in, c, res); err != nil {
			return nil, err
		}
		info, err := c.do(ctx, "GET", topicPath(""), "", "", nil)
		if err != nil {
			return nil, err
		}
		res.finalETag = info.etag
		if k == 0 {
			if res.peakRSS, err = d.rssMB("VmHWM"); err != nil {
				return nil, err
			}
		}
		if k == recoveries-1 {
			if snap, err = c.do(ctx, "GET", topicPath("/snapshot"), "", "", nil); err != nil {
				return nil, err
			}
			res.finalSnap = snap.body
		}
		if d, err = recoverDaemon(ctx, cfg, d, c, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// recoverDaemon kills d with SIGKILL, restarts it on its data directory
// and port, and records the time until it serves the state whose ETag
// the run last saw, and the CPU time the new daemon took to get there.
func recoverDaemon(ctx context.Context, cfg config, d *daemon, c *client, res *daemonRun) (*daemon, error) {
	port := d.port()
	d.kill()
	c.close()
	meter, err := startCPU(nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err = startDaemon(cfg.daemonBin, dataDir(cfg, cfg.setups-1), filepath.Join(cfg.work, "daemon.log"), port, cfg.procs)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(ctx); err != nil {
		return d, err
	}
	for {
		info, err := c.do(ctx, "GET", topicPath(""), "", "", nil)
		if err != nil {
			return d, fmt.Errorf("after restart: %w", err)
		}
		if info.etag == res.finalETag {
			break
		}
		if time.Since(t0) > 60*time.Second {
			return d, fmt.Errorf("after restart the topic's ETag is %s, last acknowledged was %s", info.etag, res.finalETag)
		}
	}
	res.recover = append(res.recover, time.Since(t0).Seconds())
	cpu, _, err := meter.stop(d)
	res.recoverCPU = append(res.recoverCPU, cpu)
	return d, err
}

// measure runs the workload's measured phase and records the daemon's
// CPU time, resident set and the hypervisor's steal over it.
func measure(ctx context.Context, cfg config, in *inputs, d *daemon, c *client, res *daemonRun) error {
	meter, err := startCPU(d)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	sampled := make(chan sample)
	go func() { sampled <- sampleRSS(d, stop) }()
	if in.w.openLoop() {
		err = measureOpen(ctx, cfg, in, c, res)
	} else {
		err = measureClosed(ctx, cfg, in, c, res)
	}
	close(stop)
	res.rss = <-sampled
	if err != nil {
		return err
	}
	var stolen float64
	res.cpuS, stolen, err = meter.stop(d)
	res.stealPct = 100 * stolen
	return err
}

// sampleRSS samples the daemon's resident set every 50 ms until stop
// is closed. A peak depends on where garbage collections fall; the
// median of many samples does not.
func sampleRSS(d *daemon, stop <-chan struct{}) sample {
	var out sample
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		if mb, err := d.rssMB("VmRSS"); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

func dataDir(cfg config, k int) string { return filepath.Join(cfg.work, fmt.Sprintf("data-%d", k)) }

func topicPath(suffix string) string { return "/v1/topics/" + topicName + suffix }

// setup launches a daemon on a fresh data directory and brings the
// topic to the state the measured phase starts from: created, its
// vocabulary warmed up and frozen, and the warm-up batch processed. It
// returns the seconds that took, counted from the daemon's launch.
func setup(ctx context.Context, cfg config, in *inputs, k int) (*daemon, *client, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(cfg.daemonBin, dataDir(cfg, k), filepath.Join(cfg.work, "daemon.log"), 0, cfg.procs)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.base, in.w.conns)
	fail := func(err error) (*daemon, *client, float64, error) {
		d.kill()
		return nil, nil, 0, err
	}
	if err := d.waitReady(ctx); err != nil {
		return fail(err)
	}
	create, err := json.Marshal(map[string]any{"name": topicName, "users": in.names, "options": topicOptions})
	if err != nil {
		return fail(err)
	}
	if _, err := c.do(ctx, "POST", "/v1/topics", mediaJSON, "", create); err != nil {
		return fail(err)
	}
	vocab := map[string]any{"freeze": true}
	if in.w.text {
		texts := make([]string, len(in.vocab))
		for i, doc := range in.vocab {
			texts[i] = strings.Join(doc, " ")
		}
		vocab["texts"] = texts
	} else {
		vocab["docs"] = in.vocab
	}
	body, err := json.Marshal(vocab)
	if err != nil {
		return fail(err)
	}
	if _, err := c.do(ctx, "POST", topicPath("/vocab"), mediaJSON, "", body); err != nil {
		return fail(err)
	}
	body, ctype, err := in.body(0, in.warmup())
	if err != nil {
		return fail(err)
	}
	if _, err := c.do(ctx, "POST", topicPath("/batches"), ctype, "", body); err != nil {
		return fail(err)
	}
	return d, c, time.Since(t0).Seconds(), nil
}

// batchSender returns the prep and do steps that post measured batches
// and record the tweet classes of each response.
func batchSender(ctx context.Context, in *inputs, c *client, res *daemonRun) (prep, do func(k int) error) {
	var body []byte
	var ctype string
	var last reply
	prep = func(k int) error {
		if k > 0 {
			if err := res.record(in, k, last); err != nil {
				return err
			}
		}
		var err error
		body, ctype, err = in.body(k+1, in.batch(k+1))
		return err
	}
	do = func(k int) error {
		var err error
		last, err = c.do(ctx, "POST", topicPath("/batches"), ctype, "", body)
		return err
	}
	return prep, do
}

// journalTail is the number of journal records every run leaves for
// the kill -9 recovery to replay: half the daemon's compaction cycle.
const journalTail = journalEvery / 2

// topUpJournal posts further batches, untimed, until the daemon's
// journal holds exactly journalTail records, so that every run's
// recovery replays the same amount of work whatever number of batches
// the measured phase completed.
func topUpJournal(ctx context.Context, cfg config, in *inputs, c *client, res *daemonRun) error {
	path := filepath.Join(dataDir(cfg, cfg.setups-1), topicName+".journal")
	for round := 0; round < 3; round++ {
		j, err := journal.Load(fault.OS, path)
		if err != nil {
			return fmt.Errorf("read the daemon's journal: %w", err)
		}
		n := len(j.Records)
		if n == journalTail {
			return nil
		}
		for k := 0; k < (journalTail-n+journalEvery)%journalEvery; k++ {
			i := len(res.classes) + 1
			body, ctype, err := in.body(i, in.batch(i))
			if err != nil {
				return err
			}
			rep, err := c.do(ctx, "POST", topicPath("/batches"), ctype, "", body)
			if err != nil {
				return err
			}
			if err := res.record(in, i, rep); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("the daemon's journal did not settle at %d records", journalTail)
}

// record decodes the response to batch k (1-based) and keeps its tweet
// classes with their planted truth.
func (res *daemonRun) record(in *inputs, k int, rep reply) error {
	if rep.status != 200 {
		return nil // already counted as failed
	}
	var cls []int
	if in.w.text {
		var br batchResponse
		if err := json.Unmarshal(rep.body, &br); err != nil {
			return fmt.Errorf("batch %d response: %w", k, err)
		}
		for _, s := range br.Tweets {
			cls = append(cls, s.Class)
		}
	} else {
		br, err := codec.DecodeBatchResponse(rep.body)
		if err != nil {
			return fmt.Errorf("batch %d response: %w", k, err)
		}
		for _, s := range br.Tweets {
			cls = append(cls, s.Class)
		}
	}
	truth := in.truth(k)
	if len(cls) != len(truth) {
		return fmt.Errorf("batch %d response has %d tweets, sent %d", k, len(cls), len(truth))
	}
	res.classes = append(res.classes, cls)
	res.pred = append(res.pred, cls...)
	res.truth = append(res.truth, truth...)
	return nil
}

// measureClosed posts batches back to back on one connection for the
// run's duration.
func measureClosed(ctx context.Context, cfg config, in *inputs, c *client, res *daemonRun) error {
	prep, do := batchSender(ctx, in, c, res)
	clk := newWallClock()
	res.batches = closedLoop(ctx, clk, cfg.seconds, minBatches, prep, do)
	res.wall = clk.now()
	if n := len(res.batches); n > 0 && res.batches[n-1].Err == nil {
		return prep(n) // records the last response
	}
	return nil
}

// probe reads the quiescent topic after the measured phase: user
// reads, half of them revalidating, then snapshot exports, recording
// the daemon's CPU time over each.
func probe(ctx context.Context, in *inputs, d *daemon, c *client, res *daemonRun) error {
	clk := newWallClock()
	meter, err := startCPU(d)
	if err != nil {
		return err
	}
	etag := ""
	for j := 0; j < probeReads; j++ {
		inm := ""
		if j%2 == 1 {
			inm = etag
		}
		t0 := clk.now()
		rep, err := c.do(ctx, "GET", topicPath("/users/"+strconv.Itoa(in.readUser(j))), "", inm, nil)
		res.probeReads = append(res.probeReads, timing{Sched: t0, Sent: t0, Done: clk.now(), Err: err})
		if rep.etag != "" {
			etag = rep.etag
		}
	}
	if res.readCPUS, _, err = meter.stop(d); err != nil {
		return err
	}
	if meter, err = startCPU(d); err != nil {
		return err
	}
	start := clk.now()
	for j := 0; j < minProbeExports || clk.now()-start < minProbeExportTime; j++ {
		t0 := clk.now()
		_, err := c.do(ctx, "GET", topicPath("/snapshot"), "", "", nil)
		res.probeExports = append(res.probeExports, timing{Sched: t0, Sent: t0, Done: clk.now(), Err: err})
	}
	res.exportCPUS, _, err = meter.stop(d)
	return err
}

// measureOpen runs the open loop: connection 1 posts a batch every
// batchEvery, connection 2 sends reader ops every readEvery, both from
// one shared start time.
func measureOpen(ctx context.Context, cfg config, in *inputs, c *client, res *daemonRun) error {
	w := in.w
	clk := newWallClock()
	var wg sync.WaitGroup
	var prepErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		prep, do := batchSender(ctx, in, c, res)
		res.batches = openLoop(ctx, clk, cfg.seconds, w.batchEvery, prep, do)
		if n := len(res.batches); n > 0 && res.batches[n-1].Err == nil {
			prepErr = prep(n)
		}
	}()
	var kinds []readerOp
	etag := ""
	reader := openLoop(ctx, clk, cfg.seconds, w.readEvery, func(int) error { return nil }, func(j int) error {
		kind := w.readerOp(j)
		kinds = append(kinds, kind)
		var rep reply
		var err error
		switch kind {
		case opExport:
			rep, err = c.do(ctx, "GET", topicPath("/snapshot"), "", "", nil)
		case opFeatures:
			rep, err = c.do(ctx, "GET", topicPath("/features"), "", "", nil)
		default:
			inm := ""
			if j%2 == 1 {
				inm = etag
			}
			rep, err = c.do(ctx, "GET", topicPath("/users/"+strconv.Itoa(in.readUser(j))), "", inm, nil)
		}
		if rep.etag != "" {
			etag = rep.etag
		}
		return err
	})
	wg.Wait()
	res.wall = clk.now()
	if prepErr != nil {
		return prepErr
	}
	res.readerLoop = reader
	for j, t := range reader {
		switch kinds[j] {
		case opExport:
			res.exports = append(res.exports, t)
		case opUser:
			res.reads = append(res.reads, t)
		}
	}
	return nil
}

// replayOps is the order in which the daemon served the requests that
// touch the topic state or its read path: the measured batches, user
// reads and exports, merged by their scheduled times (reads and exports
// do not change state, so their order among batches affects timing
// only), the probe's reads and exports, then the batches that topped up
// the journal.
func replayOps(in *inputs, dr *daemonRun) []op {
	w := in.w
	type sop struct {
		at time.Duration
		op op
	}
	var all []sop
	for k := 0; k < dr.measured; k++ {
		all = append(all, sop{time.Duration(k) * w.batchEvery, op{opBatch, k + 1}})
	}
	for j := range dr.readerLoop {
		at := time.Duration(j) * w.readEvery
		switch w.readerOp(j) {
		case opExport:
			all = append(all, sop{at, op{opExportSnap, j}})
		case opUser:
			all = append(all, sop{at, op{opRead, j}})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	var ops []op
	for _, s := range all {
		ops = append(ops, s.op)
	}
	for j := 0; j < probeReads; j++ {
		ops = append(ops, op{opRead, j})
	}
	for j := range dr.probeExports {
		ops = append(ops, op{opExportSnap, j})
	}
	for i := dr.measured + 1; i <= len(dr.classes); i++ {
		ops = append(ops, op{opBatch, i})
	}
	return ops
}
