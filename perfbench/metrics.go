package main

import (
	"fmt"
	"time"

	"triclust/internal/eval"
)

// durations returns the latencies of ts in the given unit.
func durations(ts []timing, unit time.Duration) sample {
	out := make(sample, len(ts))
	for i, t := range ts {
		out[i] = float64(t.latency()) / float64(unit)
	}
	return out
}

// endToEnd computes the metrics a user of the daemon sees, every one
// of them on every workload: gated holds the ones BENCHMARK.json bounds,
// unbounded the figures that time stolen by the hypervisor makes too
// unsteady to bound on a shared host (see README.md).
func endToEnd(in *inputs, dr *daemonRun, rp *replayed) (gated, unbounded map[string]metric, err error) {
	batch := durations(dr.batches, time.Millisecond)
	p99, err := batch.tail(0.99)
	if err != nil {
		return nil, nil, fmt.Errorf("batch latency: %w", err)
	}
	readTs, exportTs := dr.reads, dr.exports
	if len(readTs) == 0 {
		readTs, exportTs = dr.probeReads, dr.probeExports
	}
	reads := durations(readTs, time.Microsecond)
	rp99, err := reads.tail(0.99)
	if err != nil {
		return nil, nil, fmt.Errorf("read latency: %w", err)
	}
	if in.w.openLoop() {
		late := time.Duration(lateness(1, dr.batches, dr.readerLoop).quantile(0.99))
		self := time.Duration(append(selfLateness(1, dr.batches), selfLateness(1, dr.readerLoop)...).quantile(0.99))
		fmt.Printf("open loop: ops were sent %v late at p99, %v of it the generator's own\n", late, self)
		if self > maxLateP99 {
			return nil, nil, fmt.Errorf("the open-loop generator itself ran %v late at p99 (bound %v): the offered load was not the stated one", self, maxLateP99)
		}
	}
	userPred := make([]int, len(in.names))
	for u := range userPred {
		est, ok := rp.r.sess.UserEstimate(u)
		if !ok {
			return nil, nil, fmt.Errorf("user %d has no estimate at the end of the run", u)
		}
		userPred[u] = est.Class
	}

	gated = map[string]metric{
		"setup_s":          {Value: dr.setupCPU.median(), Unit: "s", n: len(dr.setupCPU)},
		"cpu_ms_per_batch": {Value: 1e3 * dr.cpuS / float64(len(dr.batches)), Unit: "ms", n: len(dr.batches)},
		"rss_mb":           {Value: dr.rss.median(), Unit: "MB", n: len(dr.rss)},
		"tweet_acc":        {Value: eval.Accuracy(dr.pred, dr.truth), Unit: "fraction", n: len(dr.pred)},
		"user_acc":         {Value: eval.Accuracy(userPred, in.stance), Unit: "fraction", n: len(userPred)},
	}
	unbounded = map[string]metric{
		"http.batch_per_s":   {Value: float64(len(dr.batches)) / dr.wall.Seconds(), Unit: "1/s", n: len(dr.batches)},
		"http.batch_p50_ms":  {Value: batch.median(), Unit: "ms", n: len(batch)},
		"http.batch_p99_ms":  {Value: p99, Unit: "ms", n: len(batch)},
		"http.read_p50_us":   {Value: reads.median(), Unit: "us", n: len(reads)},
		"http.read_p99_us":   {Value: rp99, Unit: "us", n: len(reads)},
		"http.export_p50_ms": {Value: durations(exportTs, time.Millisecond).median(), Unit: "ms", n: len(exportTs)},
		"http.recover_s":     {Value: dr.recover.median(), Unit: "s", n: len(dr.recover)},
		"http.setup_s":       {Value: dr.setupWall.median(), Unit: "s", n: len(dr.setupWall)},
		"http.read_cpu_us":   {Value: 1e6 * dr.readCPUS / float64(len(dr.probeReads)), Unit: "us", n: len(dr.probeReads)},
		"http.export_cpu_ms": {Value: 1e3 * dr.exportCPUS / float64(len(dr.probeExports)), Unit: "ms", n: len(dr.probeExports)},
		"http.recover_cpu_s": {Value: dr.recoverCPU.median(), Unit: "s", n: len(dr.recoverCPU)},
		"daemon.peak_rss_mb": {Value: dr.peakRSS, Unit: "MB", n: 1},
		"vm.steal_pct":       {Value: dr.stealPct, Unit: "%", n: 1},
	}
	return gated, unbounded, nil
}

// perLayer computes the per-layer metrics from the traced replay's
// spans: per-batch self times as medians, counts as exact per-batch
// means, and the tracing overhead as the traced replay's CPU time over
// the untraced one's.
func perLayer(spans []span, traced, plain *replayed, dr *daemonRun) (map[string]metric, error) {
	self := selfTimes(spans)
	by := map[string]sample{}    // self time, µs
	bytes := map[string]sample{} // bytes moved
	allocs := map[string]sample{}
	var rootSelf, rootDur float64
	var roots sample
	var reads, readNs float64
	for i := range spans {
		s := &spans[i]
		us := float64(self[i]) / 1e3
		by[s.Name] = append(by[s.Name], us)
		bytes[s.Name] = append(bytes[s.Name], float64(s.Bytes))
		if s.alloc {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Alloc))
		}
		switch s.Name {
		case "batch":
			rootSelf += float64(self[i])
			rootDur += float64(s.dur())
			roots = append(roots, float64(s.dur())/1e3)
		case "engine.read":
			reads += float64(s.Count)
			readNs += float64(s.dur())
		}
	}
	perBatch := []string{"wire.decode", "engine.process", "engine.view", "journal.append", "wire.encode"}
	for _, name := range append(perBatch, "codec.compact", "codec.export", "engine.read", "recover.decode", "recover.journal_load", "recover.replay") {
		if len(by[name]) == 0 {
			return nil, fmt.Errorf("the traced replay recorded no %s span", name)
		}
	}

	m := map[string]metric{}
	med := func(key, name, unit string, scale float64) {
		m[key] = metric{Value: by[name].median() * scale, Unit: unit, n: len(by[name])}
	}
	mean := func(key, unit string, s sample) {
		m[key] = metric{Value: s.mean(), Unit: unit, n: len(s)}
	}
	med("wire.decode_us", "wire.decode", "us", 1)
	mean("wire.decode_bytes", "bytes", bytes["wire.decode"])
	med("wire.encode_us", "wire.encode", "us", 1)
	mean("wire.encode_bytes", "bytes", bytes["wire.encode"])
	med("engine.process_us", "engine.process", "us", 1)
	m["engine.process_alloc_bytes"] = metric{Value: allocs["engine.process"].median(), Unit: "bytes", n: len(allocs["engine.process"])}
	mean("engine.tweets", "count", traced.r.tweets)
	mean("engine.active_users", "count", traced.r.active)
	mean("engine.iterations", "count", traced.r.iterations)
	med("engine.view_us", "engine.view", "us", 1)
	m["engine.view_alloc_bytes"] = metric{Value: allocs["engine.view"].median(), Unit: "bytes", n: len(allocs["engine.view"])}
	mean("engine.view_rows", "count", traced.r.viewRows)
	med("journal.append_us", "journal.append", "us", 1)
	mean("journal.frame_bytes", "bytes", bytes["journal.append"])
	med("codec.compact_us", "codec.compact", "us", 1)
	m["codec.snapshot_bytes"] = metric{Value: bytes["codec.compact"].median(), Unit: "bytes", n: len(bytes["codec.compact"])}
	m["codec.compactions"] = metric{Value: float64(traced.r.compactions), Unit: "count", n: 1}
	med("codec.export_us", "codec.export", "us", 1)
	m["codec.export_bytes"] = metric{Value: bytes["codec.export"].median(), Unit: "bytes", n: len(bytes["codec.export"])}
	m["engine.read_ns"] = metric{Value: readNs / reads, Unit: "ns", n: int(reads)}
	med("recover.decode_ms", "recover.decode", "ms", 1e-3)
	med("recover.journal_load_ms", "recover.journal_load", "ms", 1e-3)
	med("recover.replay_ms", "recover.replay", "ms", 1e-3)
	m["recover.replayed_batches"] = metric{Value: float64(traced.replayed), Unit: "count", n: 1}

	// http.residual_us is what the traced layers do not explain of the
	// untraced batch median: HTTP, routing, the topic lock, scheduling.
	layered := 0.0
	for _, name := range perBatch {
		layered += by[name].median()
	}
	batchP50 := durations(dr.batches, time.Microsecond).median()
	m["http.residual_us"] = metric{Value: batchP50 - layered, Unit: "us", n: len(dr.batches)}
	m["trace.batch_us"] = metric{Value: roots.median(), Unit: "us", n: len(roots)}
	m["trace.unattributed_pct"] = metric{Value: 100 * rootSelf / rootDur, Unit: "%", n: len(roots)}
	m["trace.overhead_pct"] = metric{Value: 100 * (traced.cpu.Seconds() - plain.cpu.Seconds()) / plain.cpu.Seconds(), Unit: "%", n: 2}
	return m, nil
}
