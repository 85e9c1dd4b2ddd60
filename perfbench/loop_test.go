package main

import (
	"context"
	"testing"
	"time"
)

// fakeClock advances only when an operation takes time or the loop
// sleeps.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(_ context.Context, d time.Duration) {
	if d > c.t {
		c.t = d
	}
}

const ms = time.Millisecond

// An open loop with a 45 ms stall on one request of a 10 ms schedule:
// the requests queued behind the stall are sent late, and their latency
// counts from when they were due, so the stall shows in every one of
// them instead of only in the stalled request.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	clk := &fakeClock{}
	none := func(int) error { return nil }
	ts := openLoop(context.Background(), clk, 100*ms, 10*ms, none, func(i int) error {
		if i == 3 {
			clk.t += 45 * ms
		} else {
			clk.t += 2 * ms
		}
		return nil
	})
	if len(ts) != 10 {
		t.Fatalf("%d requests, want 10", len(ts))
	}
	want := []struct{ late, latency time.Duration }{
		{0, 2 * ms}, {0, 2 * ms}, {0, 2 * ms},
		{0, 45 * ms},       // the stalled request, sent at 30
		{35 * ms, 37 * ms}, // due at 40, sent at 75
		{27 * ms, 29 * ms}, // due at 50, sent at 77
		{19 * ms, 21 * ms}, // due at 60, sent at 79
		{11 * ms, 13 * ms}, // due at 70, sent at 81
		{3 * ms, 5 * ms},   // due at 80, sent at 83
		{0, 2 * ms},        // due at 90: back on schedule
	}
	for i, w := range want {
		if ts[i].late() != w.late || ts[i].latency() != w.latency {
			t.Errorf("request %d: late %v latency %v, want late %v latency %v",
				i, ts[i].late(), ts[i].latency(), w.late, w.latency)
		}
	}
	late := lateness(ms, ts)
	if got := late.quantile(0.99); got != 35 {
		t.Errorf("p99 lateness = %v ms, want 35", got)
	}
	// The server stalled, not the generator: every queued request went
	// the moment the one before it was answered.
	if got := selfLateness(ms, ts).quantile(1); got != 0 {
		t.Errorf("max generator lateness = %v ms, want 0", got)
	}
	lat := make(sample, len(ts))
	sent := make(sample, len(ts))
	for i, x := range ts {
		lat[i] = float64(x.latency() / ms)
		sent[i] = float64((x.Done - x.Sent) / ms)
	}
	// Timed from the send, the stall would hide in one sample.
	if lat.quantile(0.8) != 29 || sent.quantile(0.8) != 2 {
		t.Errorf("p80 from schedule %v ms, from send %v ms; want 29 and 2", lat.quantile(0.8), sent.quantile(0.8))
	}
}

func TestClosedLoopRunsBackToBackForTheDuration(t *testing.T) {
	clk := &fakeClock{}
	prepped := 0
	ts := closedLoop(context.Background(), clk, 20*ms, 0, func(i int) error {
		prepped++
		clk.t += ms // untimed: not part of any latency
		return nil
	}, func(i int) error {
		clk.t += 3 * ms
		return nil
	})
	// Each iteration takes 4 ms of clock, 3 of them timed: 5 iterations
	// start before 20 ms.
	if len(ts) != 5 || prepped != 5 {
		t.Fatalf("%d requests, %d preps, want 5 and 5", len(ts), prepped)
	}
	for i, x := range ts {
		if x.late() != 0 || x.latency() != 3*ms || x.Sched != time.Duration(4*i+1)*ms {
			t.Errorf("request %d: %+v", i, x)
		}
	}
}

func TestLoopsStopWhenTheContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clk := &fakeClock{}
	none := func(int) error { return nil }
	ts := openLoop(ctx, clk, time.Hour, ms, none, func(i int) error {
		if i == 2 {
			cancel()
		}
		return nil
	})
	if len(ts) != 3 {
		t.Errorf("open loop ran %d requests after cancel at the third, want 3", len(ts))
	}
}

// A closed loop too slow to make minOps calls in the duration runs on
// until it has, but never past three times the duration.
func TestClosedLoopRunsOnForMinOps(t *testing.T) {
	none := func(int) error { return nil }
	for _, c := range []struct {
		step time.Duration
		want int
	}{{ms, 20}, {4 * ms, 10}, {10 * ms, 6}} {
		clk := &fakeClock{}
		ts := closedLoop(context.Background(), clk, 20*ms, 10, none, func(int) error {
			clk.t += c.step
			return nil
		})
		if len(ts) != c.want {
			t.Errorf("%v per call: %d calls, want %d", c.step, len(ts), c.want)
		}
	}
}

// A generator that stalls before sending (here in building request 4)
// is late by itself, on an idle server.
func TestSelfLatenessChargesTheGenerator(t *testing.T) {
	clk := &fakeClock{}
	ts := openLoop(context.Background(), clk, 100*ms, 10*ms, func(i int) error {
		if i == 4 {
			clk.t += 25 * ms // built from 32 ms, when request 3 was answered, to 57
		}
		return nil
	}, func(int) error {
		clk.t += 2 * ms
		return nil
	})
	self := selfLateness(ms, ts)
	want := []float64{0, 0, 0, 0, 17, 0, 0, 0, 0, 0} // request 4 was due at 40
	for i, w := range want {
		if self[i] != w {
			t.Errorf("request %d: generator late %v ms, want %v", i, self[i], w)
		}
	}
}
