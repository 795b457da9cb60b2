package main

import "time"

// clock reads the wall clock, on its monotonic reading. Every time the
// benchmark takes goes through here: it measures the real prototype and
// the simulator's own cost, so wall-clock time is its result.
func clock() time.Time {
	return time.Now() //lint:allow simpurity the benchmark's measurements are wall-clock time
}

// since is the wall-clock time elapsed since t.
func since(t time.Time) time.Duration { return clock().Sub(t) }
