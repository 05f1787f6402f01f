package main

import (
	"time"

	"seqver/internal/cec"
)

// layerNames are the modules the traced run reports self time and
// allocation for. "bench" is the harness code between layer calls
// (circuit generation, the Table 1 bookkeeping); "serve" is the
// daemon's own work around the pipeline (its "job" and "cache.lookup"
// spans).
var layerNames = []string{"bench", "core", "synth", "retime", "cbf", "edbf", "cec", "serve"}

// counts are the work counters the traced run records at the same call
// boundaries as its spans. Layers a workload does not call stay zero.
type counts struct {
	retimeLatchesOut int
	synthGatesIn     int
	synthGatesOut    int
	mapArea          float64
	prepExposed      int
	cbfGates         int
	edbfGates        int
	edbfEvents       int

	cecChecks, cecDecided int
	cecSATCalls           int
	cecConflicts          int64
	cecMerges             int
	cecSimRefuted         int

	// Daemon only: per-job queue wait and client overhead, cache
	// counters, miter-hash and inner-layer busy times read back from
	// each job's own trace, and journal appends.
	queueWaitMS, clientOverheadMS []float64
	cacheHits, cacheMisses        int64
	serverBusy, serverSelf        map[string]time.Duration
	journalAppends                int64
	serveAlloc                    uint64
}

// addCEC folds one combinational check into the counters.
func (c *counts) addCEC(res *cec.Result) {
	c.addCECStats(res.Verdict != cec.Undecided, res.SATCalls, res.Stats)
}

func (c *counts) addCECStats(decided bool, satCalls int, st *cec.Stats) {
	c.cecChecks++
	if decided {
		c.cecDecided++
	}
	c.cecSATCalls += satCalls
	if st != nil {
		c.cecConflicts += st.Conflicts
		c.cecMerges += st.FraigMerges
		if st.SimCexHits > 0 {
			c.cecSimRefuted++
		}
	}
}

// addLayerMetrics appends every per-layer metric: busy times, calls
// and self times from the spans, and the work counters. overhead is the
// traced pass's wall time over the untraced pass's.
func addLayerMetrics(r *result, tr *tracer, c *counts, overhead float64) {
	lt := tr.fold()
	busy := func(name string) float64 {
		return (lt.busy[name] + c.serverBusy[name]).Seconds()
	}
	r.add("retime.min_period.busy_s", busy("retime.min_period"), "s")
	r.add("retime.min_area.busy_s", busy("retime.min_area"), "s")
	r.add("retime.calls", float64(lt.calls["retime.min_period"]+lt.calls["retime.min_area"]), "count")
	r.add("retime.latches_out", float64(c.retimeLatchesOut), "count")
	r.add("synth.optimize.busy_s", busy("synth.optimize"), "s")
	r.add("synth.optimize.gates_in", float64(c.synthGatesIn), "count")
	r.add("synth.optimize.gates_out", float64(c.synthGatesOut), "count")
	r.add("synth.map.busy_s", busy("synth.map"), "s")
	r.add("synth.map.area", c.mapArea, "cell_area")
	r.add("core.prepare.busy_s", busy("core.prepare"), "s")
	r.add("core.prepare.exposed", float64(c.prepExposed), "count")
	r.add("core.match_exposure.busy_s", busy("core.match_exposure"), "s")
	r.add("cbf.unroll.busy_s", busy("cbf.unroll"), "s")
	r.add("cbf.unroll.gates", float64(c.cbfGates), "count")
	r.add("edbf.unroll.busy_s", busy("edbf.unroll"), "s")
	r.add("edbf.unroll.gates", float64(c.edbfGates), "count")
	r.add("edbf.events", float64(c.edbfEvents), "count")
	r.add("cec.check.busy_s", busy("cec.check"), "s")
	r.add("cec.sat_calls", float64(c.cecSATCalls), "count")
	r.add("cec.conflicts", float64(c.cecConflicts), "count")
	r.add("cec.fraig_merges", float64(c.cecMerges), "count")
	r.add("cec.sim_refuted", float64(c.cecSimRefuted), "count")
	decided := 0.0
	if c.cecChecks > 0 {
		decided = float64(c.cecDecided) / float64(c.cecChecks)
	}
	r.add("cec.decided_ratio", decided, "ratio")
	r.add("serve.queue_wait_ms", median(c.queueWaitMS), "ms")
	r.add("serve.client_overhead_ms", median(c.clientOverheadMS), "ms")
	hitRatio := 0.0
	if n := c.cacheHits + c.cacheMisses; n > 0 {
		hitRatio = float64(c.cacheHits) / float64(n)
	}
	r.add("serve.cache_hit_ratio", hitRatio, "ratio")
	r.add("serve.miter_hash.busy_s", busy("serve.miter_hash"), "s")
	r.add("serve.journal_appends", float64(c.journalAppends), "count")
	r.add("trace.overhead_ratio", overhead, "ratio")
	for _, l := range layerNames {
		r.add(l+".self_s", (lt.self[l] + c.serverSelf[l]).Seconds(), "s")
		alloc := lt.alloc[l]
		if l == "serve" {
			alloc += c.serveAlloc
		}
		r.add(l+".alloc_mb", float64(alloc)/(1<<20), "MB")
	}
}
