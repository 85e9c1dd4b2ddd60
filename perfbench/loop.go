package main

import (
	"context"
	"time"
)

// timing is one operation's times, relative to the start of its loop.
// In a closed loop Sched equals Sent.
type timing struct {
	Sched, Sent, Done time.Duration
	Err               error
}

// latency is the time from when the operation was due to when it
// completed: a stall is charged to every operation queued behind it.
func (t timing) latency() time.Duration { return t.Done - t.Sched }

// late is how far behind its schedule the operation was sent.
func (t timing) late() time.Duration { return t.Sent - t.Sched }

// clock abstracts time so the loops can be tested with a fake one.
type clock interface {
	now() time.Duration // since the loop started
	sleepUntil(ctx context.Context, d time.Duration)
}

type wallClock struct{ start time.Time }

func newWallClock() *wallClock { return &wallClock{start: time.Now()} }

func (c *wallClock) now() time.Duration { return time.Since(c.start) }

func (c *wallClock) sleepUntil(ctx context.Context, d time.Duration) {
	wait := d - c.now()
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// closedLoop calls do(i) for i = 0, 1, ... back to back, each call
// starting when the previous one returned, until the duration has
// elapsed and at least minOps calls were made, or until three times the
// duration. prep(i), untimed, runs before do(i): it builds request i and
// may consume the previous reply. It returns the timing of every call
// to do.
func closedLoop(ctx context.Context, clk clock, dur time.Duration, minOps int, prep, do func(i int) error) []timing {
	var out []timing
	for i := 0; ctx.Err() == nil; i++ {
		if now := clk.now(); (now >= dur && i >= minOps) || now >= 3*dur {
			break
		}
		if err := prep(i); err != nil {
			out = append(out, timing{Err: err})
			break
		}
		sent := clk.now()
		err := do(i)
		out = append(out, timing{Sched: sent, Sent: sent, Done: clk.now(), Err: err})
	}
	return out
}

// openLoop calls do(i) at the fixed schedule i·interval over the
// duration, from one connection: when a call overruns its slot the next
// one is sent late, and its latency still counts from its scheduled
// time. prep(i) runs before the wait for slot i.
func openLoop(ctx context.Context, clk clock, dur, interval time.Duration, prep, do func(i int) error) []timing {
	var out []timing
	for i := 0; ctx.Err() == nil; i++ {
		sched := time.Duration(i) * interval
		if sched >= dur {
			break
		}
		if err := prep(i); err != nil {
			out = append(out, timing{Sched: sched, Err: err})
			break
		}
		clk.sleepUntil(ctx, sched)
		sent := clk.now()
		err := do(i)
		out = append(out, timing{Sched: sched, Sent: sent, Done: clk.now(), Err: err})
	}
	return out
}

// lateness returns how far behind schedule each operation of the given
// loops was sent, in unit.
func lateness(unit time.Duration, loops ...[]timing) sample {
	var out sample
	for _, ts := range loops {
		for _, t := range ts {
			out = append(out, float64(t.late())/float64(unit))
		}
	}
	return out
}

// selfLateness returns how late the generator itself sent each
// operation of one connection's loop, in unit: the time from when the
// operation could go, both due and with the previous one answered, until
// it went. A slow server makes operations late without making the
// generator late; that wait counts in their latency instead.
func selfLateness(unit time.Duration, ts []timing) sample {
	out := make(sample, len(ts))
	var prevDone time.Duration
	for i, t := range ts {
		out[i] = float64(t.Sent-max(t.Sched, prevDone)) / float64(unit)
		prevDone = t.Done
	}
	return out
}
