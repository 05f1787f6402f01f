package serve

import (
	"bytes"
	"sort"

	"seqver/internal/obs"
)

// The job report is the dashboard's drill-down view: the job's JSONL
// trace folded into a phase/miter waterfall. It is derived entirely
// from data the daemon already keeps — the fanSink's buffered trace
// plus the engine's exact per-output Stats when the job finished with
// them — so a running job reports its partial waterfall and a finished
// one reports the full story. Where the trace only has throttled
// solver gauges (sat.conflicts is sampled, not exact), the engine's
// per-output deltas overwrite the approximation.

// slowestMiters bounds the per-miter detail in a report: the k slowest
// miters are listed individually, the rest fold into the summary.
const slowestMiters = 8

// PhaseReport aggregates every span of one name: how many ran, their
// total and maximum wall clock.
type PhaseReport struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// MiterReport is one output's miter proof in the waterfall. StartNS is
// relative to the trace epoch (the attempt's first event), so the
// dashboard can lay miters out on a shared time axis.
type MiterReport struct {
	Output    string `json:"output"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	Status    string `json:"status,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Conflicts int64  `json:"conflicts,omitempty"`
	Decisions int64  `json:"decisions,omitempty"`
	SliceNS   int64  `json:"slice_ns,omitempty"`
	DonatedNS int64  `json:"donated_ns,omitempty"`
}

// MiterSummary covers all miters; Slowest lists only the k slowest.
type MiterSummary struct {
	Total    int            `json:"total"`
	ByStatus map[string]int `json:"by_status,omitempty"`
	ByEngine map[string]int `json:"by_engine,omitempty"`
	Slowest  []MiterReport  `json:"slowest,omitempty"`
}

// BudgetReport totals the wall-clock budget scheduler's trace events:
// slices handed to miters and the unused remainders donated back.
type BudgetReport struct {
	SlicesNS  int64 `json:"slices_ns"`
	Donations int64 `json:"donations"`
	DonatedNS int64 `json:"donated_ns"`
}

// SATReport totals solver effort across the job.
type SATReport struct {
	Calls     int   `json:"calls"`
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`
}

// JobReport is GET /api/v1/jobs/{id}/report.
type JobReport struct {
	ID             string        `json:"id"`
	Status         string        `json:"status"`
	Attempts       int           `json:"attempts,omitempty"`
	Verdict        string        `json:"verdict,omitempty"`
	Engine         string        `json:"engine,omitempty"`
	Error          string        `json:"error,omitempty"`
	Cached         bool          `json:"cached,omitempty"`
	CacheOutcome   string        `json:"cache_outcome,omitempty"`
	Recovered      bool          `json:"recovered,omitempty"`
	TraceTruncated bool          `json:"trace_truncated,omitempty"`
	TotalNS        int64         `json:"total_ns"`
	Phases         []PhaseReport `json:"phases"`
	Miters         *MiterSummary `json:"miters,omitempty"`
	Budget         *BudgetReport `json:"budget,omitempty"`
	SAT            *SATReport    `json:"sat,omitempty"`
}

// foldSpan is the folder's per-span state while walking the trace.
type foldSpan struct {
	name   string
	parent uint64
	miter  *MiterReport // set on "miter" spans
	// first/last sampled solver gauges under this miter span. A warm
	// solver serves many miters, so the gauges can carry values from
	// earlier probes; the in-span delta is the per-miter estimate.
	firstConflicts, lastConflicts int64
	firstDecisions, lastDecisions int64
	sawConflicts, sawDecisions    bool
}

// Report folds the job's buffered trace (plus its result, when
// terminal) into a JobReport.
func (s *Server) Report(j *Job) *JobReport {
	data, truncated := j.fan.trace()
	// The fan buffer only ever drops whole appended chunks past its cap,
	// so every retained line is complete; a decode error here means the
	// buffer was corrupted and an empty waterfall is the honest answer.
	events, err := obs.DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		events = nil
	}
	v := j.View()
	rep := &JobReport{
		ID: j.ID, Status: v.Status, Attempts: v.Attempts,
		Error: v.Error, Recovered: v.Recovered, TraceTruncated: truncated,
		Phases: []PhaseReport{},
	}
	if v.Result != nil {
		rep.Verdict = v.Result.Verdict
		rep.Cached = v.Result.Cached
		if v.Result.Stats != nil {
			rep.Engine = v.Result.Stats.Engine
		}
	}
	foldTrace(rep, events)
	overlayStats(rep, v)
	return rep
}

// foldTrace walks the decoded events once, aggregating spans into
// phases, miter spans into the waterfall, and budget/cache instants
// into their summaries. Gauges and instants attach to their nearest
// enclosing miter span (portfolio arms open child spans under it).
func foldTrace(rep *JobReport, events []obs.Event) {
	spans := map[uint64]*foldSpan{}
	phases := map[string]*PhaseReport{}
	var miters []*MiterReport
	budget := &BudgetReport{}
	var maxTS, jobDur int64

	miterOf := func(id uint64) *foldSpan {
		for hops := 0; hops < 64; hops++ {
			sp := spans[id]
			if sp == nil {
				return nil
			}
			if sp.miter != nil {
				return sp
			}
			id = sp.parent
		}
		return nil
	}

	for _, ev := range events {
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		switch ev.Type {
		case "begin":
			sp := &foldSpan{name: ev.Name, parent: ev.Parent}
			spans[ev.Span] = sp
			if ev.Name == "miter" {
				sp.miter = &MiterReport{
					Output:  obs.AttrStr(ev.Attrs, "output"),
					StartNS: ev.TS,
					DurNS:   -1, // still open until the end event lands
				}
				miters = append(miters, sp.miter)
			}
		case "end":
			sp := spans[ev.Span]
			if sp == nil {
				continue
			}
			ph := phases[sp.name]
			if ph == nil {
				ph = &PhaseReport{Name: sp.name}
				phases[sp.name] = ph
			}
			ph.Count++
			ph.TotalNS += ev.Dur
			if ev.Dur > ph.MaxNS {
				ph.MaxNS = ev.Dur
			}
			if sp.miter != nil {
				sp.miter.DurNS = ev.Dur
				sp.miter.Conflicts = gaugeDelta(sp.sawConflicts, sp.firstConflicts, sp.lastConflicts)
				sp.miter.Decisions = gaugeDelta(sp.sawDecisions, sp.firstDecisions, sp.lastDecisions)
			}
			if sp.name == "job" && ev.Dur > jobDur {
				jobDur = ev.Dur
			}
		case "instant":
			m := miterOf(ev.Span)
			switch ev.Name {
			case "resolved":
				if m != nil {
					m.miter.Status = obs.AttrStr(ev.Attrs, "status")
					m.miter.Engine = obs.AttrStr(ev.Attrs, "engine")
				}
			case "budget.slice":
				ns := obs.AttrInt(ev.Attrs, "slice_ns")
				budget.SlicesNS += ns
				if m != nil {
					m.miter.SliceNS = ns
				}
			case "budget.donate":
				ns := obs.AttrInt(ev.Attrs, "unused_ns")
				budget.Donations++
				budget.DonatedNS += ns
				if m != nil {
					m.miter.DonatedNS = ns
				}
			case "cache":
				rep.CacheOutcome = obs.AttrStr(ev.Attrs, "outcome")
			}
		case "gauge":
			m := miterOf(ev.Span)
			if m == nil {
				continue
			}
			switch ev.Name {
			case "sat.conflicts":
				if !m.sawConflicts {
					m.firstConflicts, m.sawConflicts = ev.Value, true
				}
				m.lastConflicts = ev.Value
			case "sat.decisions":
				if !m.sawDecisions {
					m.firstDecisions, m.sawDecisions = ev.Value, true
				}
				m.lastDecisions = ev.Value
			}
		}
	}

	// Open miters (a running job) extend to the trace frontier.
	for _, m := range miters {
		if m.DurNS < 0 {
			m.DurNS = maxTS - m.StartNS
		}
	}
	rep.TotalNS = jobDur
	if rep.TotalNS == 0 {
		rep.TotalNS = maxTS
	}
	for _, ph := range phases {
		rep.Phases = append(rep.Phases, *ph)
	}
	sort.Slice(rep.Phases, func(i, k int) bool {
		if rep.Phases[i].TotalNS != rep.Phases[k].TotalNS {
			return rep.Phases[i].TotalNS > rep.Phases[k].TotalNS
		}
		return rep.Phases[i].Name < rep.Phases[k].Name
	})
	if budget.SlicesNS > 0 || budget.Donations > 0 {
		rep.Budget = budget
	}
	if len(miters) > 0 {
		rep.Miters = summarizeMiters(miters)
	}
}

func gaugeDelta(saw bool, first, last int64) int64 {
	if !saw || last < first {
		return 0
	}
	return last - first
}

func summarizeMiters(miters []*MiterReport) *MiterSummary {
	sum := &MiterSummary{Total: len(miters), ByStatus: map[string]int{}, ByEngine: map[string]int{}}
	for _, m := range miters {
		if m.Status != "" {
			sum.ByStatus[m.Status]++
		}
		if m.Engine != "" {
			sum.ByEngine[m.Engine]++
		}
	}
	sorted := append([]*MiterReport(nil), miters...)
	sort.Slice(sorted, func(i, k int) bool {
		if sorted[i].DurNS != sorted[k].DurNS {
			return sorted[i].DurNS > sorted[k].DurNS
		}
		return sorted[i].Output < sorted[k].Output
	})
	if len(sorted) > slowestMiters {
		sorted = sorted[:slowestMiters]
	}
	for _, m := range sorted {
		sum.Slowest = append(sum.Slowest, *m)
	}
	return sum
}

// overlayStats replaces trace-derived approximations with the engine's
// exact accounting when the job carries Stats: the throttled
// sat.conflicts gauges undercount short probes, while OutputStats holds
// the true per-probe deltas.
func overlayStats(rep *JobReport, v *JobView) {
	if v.Result == nil {
		return
	}
	st := v.Result.Stats
	if st == nil {
		if v.Result.SATCalls > 0 {
			rep.SAT = &SATReport{Calls: v.Result.SATCalls}
		}
		return
	}
	rep.SAT = &SATReport{Calls: st.SATCalls, Conflicts: st.Conflicts, Decisions: st.Decisions}
	if rep.Miters == nil || len(st.PerOutput) == 0 {
		return
	}
	exact := make(map[string]int, len(st.PerOutput))
	for i := range st.PerOutput {
		exact[st.PerOutput[i].Name] = i
	}
	for i := range rep.Miters.Slowest {
		m := &rep.Miters.Slowest[i]
		if k, ok := exact[m.Output]; ok {
			o := &st.PerOutput[k]
			m.Conflicts, m.Decisions = o.Conflicts, o.Decisions
			if o.Status != "" {
				m.Status = o.Status
			}
			if o.Engine != "" {
				m.Engine = o.Engine
			}
		}
	}
}
