package main

import "testing"

// The stolen share is taken of busy time only: idle ticks cannot be
// stolen from a thread.
func TestStolenShareOfBusyTime(t *testing.T) {
	a := cpuTicks{total: 1000, idle: 400, steal: 50}
	b := cpuTicks{total: 2000, idle: 600, steal: 250}
	if got := b.stolenShare(a); got != 0.25 {
		t.Errorf("stolen share = %v, want 0.25 (200 stolen of 800 busy ticks)", got)
	}
	if got := a.stolenShare(a); got != 0 {
		t.Errorf("stolen share of an empty window = %v, want 0", got)
	}
}

func TestReadTicks(t *testing.T) {
	a, err := readTicks()
	if err != nil {
		t.Skipf("no /proc/stat: %v", err)
	}
	if a.total <= 0 || a.idle > a.total || a.steal > a.total {
		t.Errorf("implausible ticks %+v", a)
	}
}
