package main

import (
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/trace"
)

// genTraces synthesizes the paper's five applications at scale and
// reports how long it took. Build 0 synthesizes the real apps into the
// trace package's packed cache, which the measured loops read. Later
// builds repeat the synthesis from the generators under fresh names with
// caching off, so a run times the generation several times without
// holding a second copy of every stream.
func genTraces(scale float64, rep int) ([]*trace.App, float64) {
	start := clock()
	apps := trace.Apps(scale)
	if rep == 0 {
		for _, a := range apps {
			trace.TouchedPages(a) // synthesizes the stream, then scans its footprint
		}
		return apps, since(start).Seconds()
	}
	prev := trace.SetCacheBudget(0)
	defer trace.SetCacheBudget(prev)
	buf := make([]trace.Ref, 8192)
	for _, a := range apps {
		again := trace.NewApp(fmt.Sprintf("%s#%d", a.Name, rep), a.Seed, a.TotalPages, a.Phases)
		rd := again.NewReader()
		for rd.Read(buf) > 0 {
		}
	}
	return apps, since(start).Seconds()
}
