package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"seqver/internal/cec"
	"seqver/internal/netlist"
	"seqver/internal/serve"
)

// daemonCallers is the number of closed-loop clients, one per CPU of
// the 2-CPU host the bounds were set on; each waits for its verdict
// before submitting again.
const daemonCallers = 2

// daemonRepeats is how often each pool pair appears in a pass's job
// list; every copy after the first is a result-cache hit.
const daemonRepeats = 2

// encodedPair is a pool pair with both sides written as BLIF, the form
// the daemon receives them in.
type encodedPair struct {
	pair
	req serve.JobRequest
}

func encodePairs(pairs []pair) ([]encodedPair, error) {
	out := make([]encodedPair, len(pairs))
	for i, p := range pairs {
		var g, r bytes.Buffer
		if err := netlist.WriteBLIF(&g, p.golden); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if err := netlist.WriteBLIF(&r, p.revised); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[i] = encodedPair{pair: p, req: serve.JobRequest{
			Golden: serve.SideSpec{BLIF: g.String()}, Revised: serve.SideSpec{BLIF: r.String()},
			Acyclic: p.acyclic, Workers: 1,
		}}
	}
	return out, nil
}

// jobList is a pass's fixed job list: the pool in order, daemonRepeats
// times over, so each repeat follows its first copy by a whole round
// and finds it in the cache. A seeded order made which large jobs run
// side by side differ between seeds, and with it peak memory (350 to
// 485 MB) and job_p90_ms (370 to 630 ms).
func jobList(pool []encodedPair) []int {
	var jobs []int
	for k := 0; k < daemonRepeats; k++ {
		for i := range pool {
			jobs = append(jobs, i)
		}
	}
	return jobs
}

// daemon is an in-process seqverd served over loopback HTTP, with its
// journal and cache in a temporary directory inside the checkout.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	dir    string
	client *serve.Client
}

func startDaemon() (*daemon, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "seqverd-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Workers: daemonCallers,
		JournalDir: filepath.Join(dir, "journal"), CacheDir: filepath.Join(dir, "cache")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), dir: dir,
		client: &serve.Client{Base: "http://" + ln.Addr().String()}}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, shuts the HTTP server down, waits for it to
// return, and removes the temporary directory.
func (d *daemon) stop() error {
	d.srv.Drain(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(d.dir))
}

// jobOutcome is what one caller learned about one job.
type jobOutcome struct {
	pool   int
	view   *serve.JobView
	client time.Duration // submit to verdict, as the client saw it
	err    error
}

// runJobs has daemonCallers closed-loop callers take the jobs in order,
// each submitting its next job once its last verdict is back. With a
// tracer, each job's submit and wait are spans.
func (d *daemon) runJobs(pool []encodedPair, jobs []int, tr *tracer) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for c := 0; c < daemonCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				p := &pool[jobs[k]]
				o := jobOutcome{pool: jobs[k]}
				s := tr.root(fmt.Sprintf("%s#%d", p.name, k))
				start := time.Now()
				o.err = s.do("client.submit", func(scope) error {
					v, err := d.client.Submit(ctx, &p.req)
					o.view = v
					return err
				})
				if o.err == nil {
					o.err = s.do("client.wait", func(scope) error {
						v, err := d.client.Wait(ctx, o.view.ID)
						o.view = v
						return err
					})
				}
				o.client = time.Since(start)
				out[k] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// checkJob classifies one daemon job against its pair's known answer.
func checkJob(r *result, p *encodedPair, o jobOutcome) {
	r.attempted++
	switch {
	case o.err != nil:
		r.failed++
		r.note("daemon %s: %v", p.name, o.err)
	case o.view.Status != serve.StatusDone || o.view.Result == nil:
		r.failed++
		r.note("daemon %s: status %s: %s", p.name, o.view.Status, o.view.Error)
	default:
		checkVerdict(r, p.pair, verdictOf(o.view.Result.Verdict), o.view.Result.Counterexample)
	}
}

func verdictOf(s string) cec.Verdict {
	switch s {
	case cec.Equivalent.String():
		return cec.Equivalent
	case cec.Inequivalent.String():
		return cec.Inequivalent
	}
	return cec.Undecided
}

// serverLatency is submit to verdict as the daemon recorded it.
func serverLatency(v *serve.JobView) time.Duration {
	if v == nil || v.Finished == nil {
		return 0
	}
	return v.Finished.Sub(v.Created)
}

// daemonPass starts a fresh daemon (so every pass begins with a cold
// cache), runs the job list, hands the outcomes to after while the
// daemon is still up, and stops it. It returns the job list's wall time
// and the daemon's start time.
func daemonPass(pool []encodedPair, jobs []int, tr *tracer, after func(*daemon, []jobOutcome) error) (time.Duration, time.Duration, error) {
	t := time.Now()
	d, err := startDaemon()
	if err != nil {
		return 0, 0, err
	}
	startup := time.Since(t)
	t = time.Now()
	outs := d.runJobs(pool, jobs, tr)
	wall := time.Since(t)
	err = after(d, outs)
	return wall, startup, errors.Join(err, d.stop())
}

func runDaemon(cfg config) (*result, error) {
	pool, poolSetup, err := setUp(func() ([]encodedPair, error) {
		pairs, err := buildPairs(cfg.seed)
		if err != nil {
			return nil, err
		}
		return encodePairs(pairs)
	})
	if err != nil {
		return nil, err
	}
	jobs := jobList(pool)
	r := &result{}
	if cfg.trace {
		return r, traceDaemon(cfg, pool, jobs, r)
	}
	var lat latencies
	var startups []float64
	var hits, misses int64
	walls, err := measure(cfg.window, func() (time.Duration, error) {
		wall, startup, err := daemonPass(pool, jobs, nil, func(d *daemon, outs []jobOutcome) error {
			for _, o := range outs {
				checkJob(r, &pool[o.pool], o)
				lat = append(lat, ms(serverLatency(o.view)))
			}
			st := d.srv.CacheStats()
			hits += st.Hits
			misses += st.Misses
			return nil
		})
		startups = append(startups, startup.Seconds())
		return wall, err
	})
	if err != nil {
		return nil, err
	}
	if err := addCommon(r, poolSetup+median(startups), walls); err != nil {
		return nil, err
	}
	lat.note(r, "daemon")
	pairs := make([]pair, len(pool))
	for i := range pool {
		pairs[i] = pool[i].pair
	}
	quality(r, pairs)
	r.note("daemon: %d jobs per pass over %d pairs, %d callers; cache hit share %.3f (%d hits, %d misses)",
		len(jobs), len(pool), daemonCallers, float64(hits)/float64(max(1, hits+misses)), hits, misses)
	return r, nil
}

// traceDaemon runs one untraced and one traced pass, each on a fresh
// daemon. The traced pass records each job's submit and wait; the
// layers inside the daemon are read back from the job's own trace and
// view, and the cache and journal counts from the server.
func traceDaemon(cfg config, pool []encodedPair, jobs []int, r *result) error {
	untraced, _, err := daemonPass(pool, jobs, nil, func(_ *daemon, outs []jobOutcome) error {
		for _, o := range outs {
			checkJob(r, &pool[o.pool], o)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The two callers' spans overlap, so per-span allocation deltas
	// would count each other's and the daemon's work: the serve layer
	// is charged the whole pass's allocation instead. The callers'
	// spans are named client.*, outside every reported layer; the
	// layers' self times come from the jobs' own traces.
	tr := newTracer()
	tr.concurrent = true
	c := &counts{serverBusy: map[string]time.Duration{}, serverSelf: map[string]time.Duration{}}
	a0 := allocSample()
	traced, _, err := daemonPass(pool, jobs, tr, func(d *daemon, outs []jobOutcome) error {
		for _, o := range outs {
			checkJob(r, &pool[o.pool], o)
			if o.err != nil {
				continue
			}
			v := o.view
			if v.Started != nil {
				c.queueWaitMS = append(c.queueWaitMS, ms(v.Started.Sub(v.Created)))
			}
			c.clientOverheadMS = append(c.clientOverheadMS, ms(o.client-serverLatency(v)))
			if res := v.Result; res != nil && res.Stats != nil {
				c.addCECStats(res.Verdict != cec.Undecided.String(), res.SATCalls, res.Stats)
			}
			raw, err := d.client.Trace(context.Background(), v.ID)
			if err != nil {
				return fmt.Errorf("trace of job %s: %w", v.ID, err)
			}
			if err := c.addJobTrace(raw); err != nil {
				return fmt.Errorf("trace of job %s: %w", v.ID, err)
			}
		}
		c.serveAlloc = allocSample() - a0
		st := d.srv.CacheStats()
		c.cacheHits, c.cacheMisses = st.Hits, st.Misses
		c.journalAppends = d.srv.Registry().Counter("seqverd_journal_appends_total", "").Value()
		return nil
	})
	if err != nil {
		return err
	}
	if err := tr.write(cfg.spansTo); err != nil {
		return err
	}
	addLayerMetrics(r, tr, c, traced.Seconds()/untraced.Seconds())
	r.note("daemon: traced pass %.3fs, untraced pass %.3fs, %d spans in %s",
		traced.Seconds(), untraced.Seconds(), len(tr.spans), cfg.spansTo)
	return nil
}

// serverSpans maps the daemon's own span names to the per-layer
// metric they feed.
var serverSpans = map[string]string{
	"prepare":      "core.prepare",
	"cbf.unroll":   "cbf.unroll",
	"edbf.unroll":  "edbf.unroll",
	"cache.lookup": "serve.miter_hash",
	"cec":          "cec.check",
}

// serverLayers assigns the daemon's span names to layers for self time.
// A span under another name counts toward its parent's self time.
var serverLayers = map[string]string{
	"job": "serve", "cache.lookup": "serve",
	"prepare": "core", "unate.model": "core", "feedback.break": "core",
	"cbf.unroll": "cbf", "edbf.unroll": "edbf",
	"cec": "cec", "aig.build": "cec", "bdd.build": "cec", "sim": "cec",
	"fraig": "cec", "fraig.classes": "cec", "miters": "cec", "miter": "cec",
}

// addJobTrace folds one job's JSONL trace: busy time of the spans in
// serverSpans, self time per layer, the unrolled gate counts the
// "unrolled" event carries, the exposed latches, and the events the
// job's EDBF context interned.
func (c *counts) addJobTrace(raw []byte) error {
	type jobSpan struct {
		name   string
		parent uint64
		dur    int64
	}
	spans := map[uint64]*jobSpan{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	events := int64(0)
	for sc.Scan() {
		var ev struct {
			Type   string         `json:"type"`
			Name   string         `json:"name"`
			Span   uint64         `json:"span"`
			Parent uint64         `json:"parent"`
			Dur    int64          `json:"dur"`
			Value  int64          `json:"value"`
			Attrs  map[string]any `json:"attrs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		switch {
		case ev.Type == "begin":
			spans[ev.Span] = &jobSpan{name: ev.Name, parent: ev.Parent}
		case ev.Type == "end":
			if sp := spans[ev.Span]; sp != nil {
				sp.dur = ev.Dur
			}
			if metric, ok := serverSpans[ev.Name]; ok {
				c.serverBusy[metric] += time.Duration(ev.Dur)
			}
		case ev.Type == "gauge" && ev.Name == "feedback.exposed":
			c.prepExposed += int(ev.Value)
		case ev.Type == "gauge" && ev.Name == "edbf.events":
			// The context's running total: the last one counts.
			events = ev.Value
		case ev.Name == "unrolled":
			g1, _ := ev.Attrs["gates1"].(float64)
			g2, _ := ev.Attrs["gates2"].(float64)
			if ev.Attrs["method"] == "edbf" {
				c.edbfGates += int(g1 + g2)
			} else {
				c.cbfGates += int(g1 + g2)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	c.edbfEvents += int(events)
	childDur := map[uint64]int64{}
	for _, sp := range spans {
		if _, ok := serverLayers[sp.name]; ok && sp.parent != 0 {
			childDur[sp.parent] += sp.dur
		}
	}
	for id, sp := range spans {
		if layer, ok := serverLayers[sp.name]; ok && sp.dur > childDur[id] {
			c.serverSelf[layer] += time.Duration(sp.dur - childDur[id])
		}
	}
	return nil
}
