package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dollymp/client"
	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/journal"
	"dollymp/internal/sched"
	"dollymp/internal/service"
	"dollymp/internal/shard"
	"dollymp/internal/workload"
)

// e2eWorkload drives the daemon's stack in one process: the client SDK
// over loopback HTTP into service.NewHandler on a sharded router with
// the journal on. Load is an open loop: request i is due at a fixed
// offset from the start whether or not earlier requests have answered,
// and every latency is timed from the request's due time.
type e2eWorkload struct {
	fleet, shards int
	submitRate    float64 // single-job submissions per second
	readEvery     int     // every readEvery-th request is a status read
	maxConns      int     // client connections
	workers       int     // goroutines issuing requests
	reqTimeout    time.Duration
}

// e2eHTTP offers 600 submissions/s plus 150 status reads/s. At twice
// that rate the 2 connections queued often enough that the 90th
// percentile latency moved by 0.4–0.8 of its median between runs on a
// 2-vCPU VM; at this rate it moved by 0.06–0.17.
var e2eHTTP = e2eWorkload{
	fleet: 200, shards: 2, submitRate: 600, readEvery: 5,
	maxConns: 2, workers: 8, reqTimeout: 5 * time.Second,
}

// rate is the total request rate, submissions and reads together.
func (w e2eWorkload) rate() float64 {
	return w.submitRate * float64(w.readEvery) / float64(w.readEvery-1)
}

// e2eJobs builds the jobs of an n-request schedule for seed: one-phase
// jobs of 1–4 single-core tasks of 2–9 slots. Request i (a submission)
// carries its index in the job name so server-side spans can be tied
// to the client call that caused them.
func (w e2eWorkload) e2eJobs(n int, seed uint64) []*workload.Job {
	rng := rand.New(rand.NewPCG(seed, 0xe2e))
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		if w.isRead(i) {
			continue
		}
		jobs[i] = &workload.Job{
			Name: "op-" + strconv.Itoa(i), App: "bench",
			Phases: []workload.Phase{drainPhase(rng)},
		}
	}
	return jobs
}

// isRead reports whether request i is a status read.
func (w e2eWorkload) isRead(i int) bool { return i%w.readEvery == w.readEvery-1 }

// stack is one running deployment plus the client that talks to it.
type stack struct {
	dir       string
	router    *shard.Router
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client
}

// startStack opens a fresh journal directory, starts a 2-shard router
// on it, serves the HTTP API on a loopback port and waits until the
// deployment reports ready. With tr set, calls the handler makes into
// the router are recorded as spans.
func (w e2eWorkload) startStack(ctx context.Context, seed uint64, dir string, tr *tracer) (*stack, error) {
	r, err := shard.New(shard.Config{
		Fleet:  cluster.LargeFleet(w.fleet, seed),
		Shards: w.shards,
		Policy: shard.RouteP2C,
		NewScheduler: func(int) (sched.Scheduler, error) {
			return core.New(core.WithClones(2))
		},
		Seed:       seed,
		JournalDir: dir,
	})
	if err != nil {
		return nil, err
	}
	r.Start()
	var api service.API = r
	if tr != nil {
		api = &tracedAPI{Router: r, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.Stop(ctx)
		return nil, err
	}
	s := &stack{
		dir: dir, router: r,
		srv:       &http.Server{Handler: service.NewHandler(api)},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: w.maxConns, MaxIdleConnsPerHost: w.maxConns},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: s.transport, Timeout: 30 * time.Second}),
		client.WithGatewayOnly())
	if err := s.client.Ready(ctx); err != nil {
		s.stop(ctx)
		return nil, fmt.Errorf("deployment not ready: %w", err)
	}
	return s, nil
}

// stop shuts the HTTP server, then drains and stops the router, which
// runs every accepted job to completion and closes the journal.
func (s *stack) stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.transport.CloseIdleConnections()
	return errors.Join(err, s.router.Stop(ctx))
}

// tracedAPI forwards the HTTP handler's calls to the router, recording
// submissions and status reads as spans. Every other service.API method
// is the embedded router's.
type tracedAPI struct {
	*shard.Router
	tr *tracer
}

var _ service.API = (*tracedAPI)(nil)

func (a *tracedAPI) SubmitNowait(j *workload.Job) (workload.JobID, error) {
	req, _ := strconv.ParseInt(strings.TrimPrefix(j.Name, "op-"), 10, 64)
	start := time.Now()
	id, err := a.Router.SubmitNowait(j)
	a.tr.record(spanShardSubmit, req, start, time.Now())
	return id, err
}

func (a *tracedAPI) Job(id workload.JobID) (service.JobInfo, bool) {
	start := time.Now()
	info, ok := a.Router.Job(id)
	a.tr.record(spanShardJob, int64(id), start, time.Now())
	return info, ok
}

// loadOut is what one open-loop pass measured.
type loadOut struct {
	wall                       time.Duration // first due time to drained router
	submits, reads             int
	failedSubmits, failedReads int
	ack, status                []sample
	lagNs                      []float64
	counts                     service.Counts
	completed                  int64
	flowtime                   int64
	schedCalls                 int
	schedWall                  time.Duration
	copies, tasks              int64
	retries                    int64
	journalRecords             int64
	journalBytes               int64
	rt                         runtimeCounters
}

// recentIDs is a ring of the most recently acked job IDs, the targets
// of status reads.
type recentIDs struct {
	mu    sync.Mutex
	ids   []workload.JobID
	n     int
	rng   *rand.Rand
	first chan struct{} // closed by the first add
	once  sync.Once
}

func newRecentIDs(size int, seed uint64) *recentIDs {
	return &recentIDs{
		ids: make([]workload.JobID, 0, size),
		rng: rand.New(rand.NewPCG(seed, 0x4ead)), first: make(chan struct{}),
	}
}

func (r *recentIDs) add(id workload.JobID) {
	r.mu.Lock()
	if len(r.ids) < cap(r.ids) {
		r.ids = append(r.ids, id)
	} else {
		r.ids[r.n%len(r.ids)] = id
	}
	r.n++
	r.mu.Unlock()
	r.once.Do(func() { close(r.first) })
}

// pick returns a random recently acked ID, waiting for the first ack.
func (r *recentIDs) pick(ctx context.Context) (workload.JobID, error) {
	select {
	case <-r.first:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[r.rng.IntN(len(r.ids))], nil
}

type request struct {
	i   int
	due time.Time
	win int           // the second of the schedule it is due in
	job *workload.Job // nil for a status read
}

// sample is one request's latency, tagged with the second of the
// schedule the request was due in.
type sample struct {
	win int
	ns  float64
}

// byWindow summarises latencies per second of the schedule and returns
// the median over seconds.
func byWindow(ss []sample) latency {
	var w [][]float64
	for _, s := range ss {
		for len(w) <= s.win {
			w = append(w, nil)
		}
		w[s.win] = append(w[s.win], s.ns)
	}
	ls := make([]latency, len(w))
	for i, ns := range w {
		ls[i] = summarize(ns)
	}
	return medianLatency(ls)
}

// pooled returns every latency, ungrouped.
func pooled(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ns
	}
	return out
}

// runLoad sends the open-loop schedule for d, waits for every request to
// answer, drains the router and checks the accounting: every acked job
// completed exactly once, in the router's counts and in the journal.
func (w e2eWorkload) runLoad(ctx context.Context, s *stack, jobs []*workload.Job, seed uint64, d time.Duration, tr *tracer) (*loadOut, error) {
	out := &loadOut{}
	period := time.Duration(float64(time.Second) / w.rate())
	n := int(d / period)
	if n > len(jobs) {
		n = len(jobs)
	}
	recent := newRecentIDs(64, seed)
	// The buffer holds every request of the schedule, so the generator
	// never waits on a busy worker: a stall shows as requests starting
	// late (lag) and answering late, not as requests sent late.
	reqs := make(chan request, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	before := readRuntime()
	t0 := time.Now()
	for k := 0; k < w.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack, status []sample
			var lag []float64
			var failedSubmits, failedReads int
			for rq := range reqs {
				sent := time.Now()
				lag = append(lag, float64(sent.Sub(rq.due)))
				rctx, cancel := context.WithDeadline(ctx, rq.due.Add(w.reqTimeout))
				if rq.job != nil {
					id, err := s.client.Submit(rctx, rq.job)
					end := time.Now()
					if err != nil {
						failedSubmits++
					} else {
						recent.add(id)
					}
					ack = append(ack, sample{rq.win, float64(end.Sub(rq.due))})
					if tr != nil {
						tr.record(spanClientSubmit, int64(rq.i), sent, end)
					}
				} else {
					id, err := recent.pick(rctx)
					if err == nil {
						var info service.JobInfo
						info, err = s.client.Job(rctx, id)
						if err == nil && info.ID != id {
							err = fmt.Errorf("read job %d, got %d", id, info.ID)
						}
					}
					end := time.Now()
					if err != nil {
						failedReads++
					}
					status = append(status, sample{rq.win, float64(end.Sub(rq.due))})
					if tr != nil {
						tr.record(spanClientJob, int64(id), sent, end)
					}
				}
				cancel()
			}
			mu.Lock()
			out.ack = append(out.ack, ack...)
			out.status = append(out.status, status...)
			out.lagNs = append(out.lagNs, lag...)
			out.failedSubmits += failedSubmits
			out.failedReads += failedReads
			mu.Unlock()
		}()
	}
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if jobs[i] == nil {
			out.reads++
		} else {
			out.submits++
		}
		reqs <- request{i: i, due: due, win: int(due.Sub(t0) / time.Second), job: jobs[i]}
	}
	close(reqs)
	wg.Wait()
	out.retries = s.client.Retries()
	if err := s.stop(ctx); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	out.wall = time.Since(t0)
	out.rt = readRuntime().sub(before)
	return out, w.account(s, out)
}

// account reads the drained router's counts, results and journal and
// checks that every acked job completed exactly once.
func (w e2eWorkload) account(s *stack, out *loadOut) error {
	out.counts = s.router.Counts()
	c := out.counts
	acked := int64(out.submits - out.failedSubmits)
	if c.Submitted < acked || c.Submitted > int64(out.submits) {
		return fmt.Errorf("router counted %d submissions; %d acked of %d sent", c.Submitted, acked, out.submits)
	}
	if c.Completed != c.Submitted {
		return fmt.Errorf("router completed %d of %d submitted jobs", c.Completed, c.Submitted)
	}
	results, err := s.router.Results()
	if err != nil {
		return err
	}
	for _, res := range results {
		out.completed += int64(res.Completed)
		out.flowtime += res.TotalFlowtime()
		out.schedCalls += res.SchedCalls
		out.schedWall += res.SchedWall
		for _, m := range res.Jobs {
			out.copies += int64(m.CopiesLaunched)
			out.tasks += int64(m.TotalTasks)
		}
	}
	if out.completed != c.Completed {
		return fmt.Errorf("engines completed %d jobs, router counted %d", out.completed, c.Completed)
	}
	segs, err := journal.ListSegments(s.dir)
	if err != nil {
		return err
	}
	var done int64
	for _, path := range segs {
		rep, err := journal.ReplayFile(path)
		if err != nil {
			return err
		}
		if rep.Truncated != 0 {
			return fmt.Errorf("journal %s: %d-byte torn tail after a clean stop", path, rep.Truncated)
		}
		out.journalRecords += rep.Records
		for _, j := range rep.Jobs {
			if j.Outcome != journal.OutcomeCompleted {
				return fmt.Errorf("journal %s: job %d replays as %s after a clean stop", path, j.ID, j.Outcome)
			}
			done++
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		out.journalBytes += st.Size()
	}
	if done != c.Completed {
		return fmt.Errorf("journal holds %d completed jobs, router counted %d", done, c.Completed)
	}
	return nil
}

// runE2E sets the stack up setupRuns times, drives the last one with
// the open-loop schedule and checks the accounting. Every journal lives
// under dir, which run removes when the run ends. With o.trace it
// then repeats the pass on a fresh stack with spans recorded and
// reports per-layer metrics instead.
func runE2E(w e2eWorkload, o options, dir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*o.seconds+time.Minute)
	defer cancel()
	n := int(o.seconds.Seconds()*w.rate()) + 1
	var setups []float64
	var s *stack
	var jobs []*workload.Job
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		jdir := filepath.Join(dir, fmt.Sprintf("journal-%d", k))
		jobs = w.e2eJobs(n, o.seed)
		var err error
		if s, err = w.startStack(ctx, o.seed, jdir, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
		}
	}
	out, err := w.runLoad(ctx, s, jobs, o.seed, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := newResult(o.trace)
	res.Attempted = int64(out.submits + out.reads)
	res.Failed = int64(out.failedSubmits + out.failedReads)
	if !o.trace {
		res.set("jobs_per_s", float64(out.completed)/out.wall.Seconds())
		res.set("setup_s", median(setups))
		res.set("peak_rss_mb", rss)
		res.set("ok_frac", 1-float64(res.Failed)/float64(res.Attempted))
		res.set("mean_jct_slots", ratio(float64(out.flowtime), float64(out.completed)))
		res.setLatency(byWindow(out.ack), byWindow(out.status))
		return res, nil
	}

	tr := newTracer()
	jdir := filepath.Join(dir, "journal-traced")
	ts, err := w.startStack(ctx, o.seed, jdir, tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tout, err := w.runLoad(ctx, ts, jobs, o.seed, o.seconds, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.Attempted += int64(tout.submits + tout.reads)
	res.Failed += int64(tout.failedSubmits + tout.failedReads)
	if err := tr.write(filepath.Join(outDir, "spans-e2e-http.tsv")); err != nil {
		return nil, err
	}

	done := float64(tout.completed)
	submits := sorted(tr.durations(spanShardSubmit))
	reads := sorted(tr.durations(spanShardJob))
	res.set("shard.submit_us_p50", percentile(submits, 50)/1e3)
	res.set("shard.submit_us_p99", percentile(submits, 99)/1e3)
	res.set("shard.submit_n", float64(len(submits)))
	res.set("shard.job_us_p50", percentile(reads, 50)/1e3)
	res.set("shard.job_us_p99", percentile(reads, 99)/1e3)
	res.set("shard.job_n", float64(len(reads)))
	inner := tr.byReq(spanShardSubmit)
	var self []float64
	for req, d := range tr.byReq(spanClientSubmit) {
		if in, ok := inner[req]; ok {
			self = append(self, float64(d-in))
		}
	}
	res.set("http.submit_self_us_p50", percentile(sorted(self), 50)/1e3)
	res.set("client.retries", float64(tout.retries))
	c := tout.counts
	res.set("service.rejected_frac", ratio(float64(c.Rejected), float64(c.Submitted+c.Rejected)))
	res.set("journal.records_per_job", ratio(float64(tout.journalRecords), done))
	res.set("journal.bytes_per_job", ratio(float64(tout.journalBytes), done))
	res.set("core.calls", float64(tout.schedCalls))
	res.set("core.schedule_ns_per_job", ratio(float64(tout.schedWall), done))
	res.set("core.placements_per_call", ratio(float64(tout.copies), float64(tout.schedCalls)))
	res.set("sim.copies_per_task", ratio(float64(tout.copies), float64(tout.tasks)))
	res.set("core.clone_placement_frac", ratio(float64(tout.copies-tout.tasks), float64(tout.copies)))
	res.set("loadgen.lag_p99_ms", percentile(sorted(out.lagNs), 99)/1e6)
	res.setLatencyTails(byWindow(out.ack), byWindow(out.status))
	res.setRuntime(out.rt, float64(out.completed))
	res.set("tracing.overhead_frac", median(pooled(tout.ack))/median(pooled(out.ack))-1)
	return res, nil
}
