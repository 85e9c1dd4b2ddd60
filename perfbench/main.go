// Command perfbench is the repository benchmark: it drives a live
// triclustd over loopback HTTP with one of three workloads and reports
// the end-to-end metrics, or, with -trace 1, replays the same requests
// in-process with a span around every layer call and reports the
// per-layer split. See README.md for the workloads, the metrics and how
// to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"triclust/internal/par"
)

// maxLateP99 bounds how late the open-loop generator itself may send at
// its 99th percentile (see selfLateness) before a run is invalid: beyond
// it the offered load was not the stated one.
const maxLateP99 = 50 * time.Millisecond

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind the value
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra are the figures the run prints but does not report: the
	// unbounded ones of an untraced run, the bounded ones of a traced
	// run.
	extra map[string]metric
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced in-process replay")
	daemonBin := flag.String("daemon", "", "path of the triclustd binary")
	work := flag.String("work", "", "directory for daemon data, logs and span files")
	flag.Parse()
	if *daemonBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon, -work, -seconds >= 1 and -trace 0|1 are required")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// Every run, all phases included, must end well within three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second*time.Duration(len(names)))
	defer cancel()
	cfg := config{
		daemonBin: *daemonBin,
		seconds:   time.Duration(*seconds) * time.Second,
		procs:     runtime.GOMAXPROCS(0),
		setups:    3,
	}
	par.SetProcs(cfg.procs)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		cfg.work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", n, *seed, os.Getpid()))
		res, err := runWorkload(ctx, cfg, workloads[n], *seed, *trace == 1, *work)
		if rmErr := os.RemoveAll(cfg.work); rmErr != nil && err == nil {
			err = rmErr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
		}
		if res == nil {
			os.Exit(1)
		}
		printResult(n, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			total.Metrics[k] = m
		}
	}
	if !total.Correct {
		total.Metrics = map[string]metric{}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runWorkload runs one workload. A nil result means the benchmark could
// not run; a result with Correct false means a check failed.
func runWorkload(ctx context.Context, cfg config, w *workload, seed int64, traced bool, work string) (*result, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	phase := time.Now()
	logPhase := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s took %.1fs\n", w.name, what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	logPhase("input generation")
	dr, err := runDaemon(ctx, cfg, in)
	if err != nil {
		return nil, err
	}
	logPhase(fmt.Sprintf("daemon run (setups %.2v s, %d batches, recoveries %.2v s)", dr.setupWall, len(dr.batches), dr.recover))
	res := &result{Attempted: dr.attempted, Failed: dr.failed, Metrics: map[string]metric{}}
	invalid := func(err error) (*result, error) { return res, fmt.Errorf("correctness check failed: %w", err) }
	if dr.failed > 0 {
		return invalid(fmt.Errorf("%d of %d requests failed", dr.failed, dr.attempted))
	}

	// The untraced run checks the daemon against a verify-only replay;
	// the traced run against a full one, whose time is also the base of
	// the tracing overhead.
	ops := replayOps(in, dr)
	plain, err := replay(in, dr, ops, filepath.Join(cfg.work, "replay"), nil, !traced)
	if err != nil {
		return invalid(err)
	}
	logPhase("replay")
	e2e, unbounded, err := endToEnd(in, dr, plain)
	if err != nil {
		return invalid(err)
	}
	if !traced {
		res.Correct, res.Metrics, res.extra = true, e2e, unbounded
		return res, nil
	}

	tr := newTracer()
	tout, err := replay(in, dr, ops, filepath.Join(cfg.work, "traced"), tr, false)
	if err != nil {
		return invalid(err)
	}
	logPhase("traced replay")
	layers, err := perLayer(tr.spans, tout, plain, dr)
	if err != nil {
		return invalid(err)
	}
	spanFile := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spanFile, tr.spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", spanFile)
	for k, m := range unbounded {
		layers[k] = m
	}
	res.Correct, res.Metrics, res.extra = true, layers, e2e
	return res, nil
}

// replayed is one in-process replay's outcome.
type replayed struct {
	cpu      time.Duration // spent replaying the requests
	r        *replayer
	replayed int // journal records replayed by the recovery step
}

// replay runs ops in-process from the daemon's post-setup state and
// checks that it ends where the daemon ended: the same responses, the
// same stream fingerprint, and a byte-identical snapshot.
func replay(in *inputs, dr *daemonRun, ops []op, dir string, tr *tracer, verifyOnly bool) (*replayed, error) {
	runtime.GC() // start every replay from the same heap, for the overhead comparison
	r, err := newReplayer(in, dr.setupSnap, dir, tr, verifyOnly)
	if err != nil {
		return nil, err
	}
	defer r.close()
	cpu, err := r.run(ops)
	if err != nil {
		return nil, err
	}
	if len(r.classes) != len(dr.classes) {
		return nil, fmt.Errorf("replayed %d batches, the daemon acknowledged %d", len(r.classes), len(dr.classes))
	}
	for k := range r.classes {
		if !equalInts(r.classes[k], dr.classes[k]) {
			return nil, fmt.Errorf("batch %d: the daemon's tweet classes differ from the replay's", k+1)
		}
	}
	batches, draws := r.sess.Progress()
	if want := fmt.Sprintf(`"b%d-r%x-e%d"`, batches, draws, r.epoch); dr.finalETag != want {
		return nil, fmt.Errorf("daemon's final ETag %s, replay's fingerprint %s", dr.finalETag, want)
	}
	snap, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	if string(snap) != string(dr.finalSnap) {
		return nil, fmt.Errorf("daemon's snapshot (%d bytes) differs from the replay's (%d bytes)", len(dr.finalSnap), len(snap))
	}
	out := &replayed{cpu: cpu, r: r}
	if !verifyOnly {
		if out.replayed, err = r.recovery(int64(len(ops))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func printResult(name string, res *result) {
	fmt.Printf("workload %s: correct=%v attempted=%d failed=%d failed_ratio=%.4g\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, set := range []map[string]metric{res.Metrics, res.extra} {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := set[k]
			fmt.Printf("  %-28s %14.6g %-8s n=%d\n", k, m.Value, m.Unit, m.n)
		}
	}
}
