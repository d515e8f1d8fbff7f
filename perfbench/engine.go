package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/core"
	"dollymp/internal/resources"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/trace"
	"dollymp/internal/verify"
	"dollymp/internal/workload"
)

// engineWorkload is a trace replay through the online engine: jobs are
// injected through a bounded lookahead window and the engine is stepped
// until the last one finishes, as cmd/dollymp-bench's replay drains do.
type engineWorkload struct {
	name        string
	jobs        int // jobs per replay
	fleet       int // cluster.LargeFleet size
	jobsPerSlot int // arrival rate the jobs are stamped with
	// streamed writes the jobs to a trace file during set-up and
	// decodes them back during the replay (google-200); otherwise they
	// are built in memory (synth-2k).
	streamed bool
}

// window bounds injected-but-not-arrived jobs, as in the replay drains.
const window = 4096

// prefixJobs is how many leading jobs of a workload the correctness
// pass replays with a recorded trace and certifies.
const prefixJobs = 2000

var (
	google200 = engineWorkload{name: "google-200", jobs: 25_000, fleet: 200, jobsPerSlot: 12, streamed: true}
	synth2k   = engineWorkload{name: "synth-2k", jobs: 20_000, fleet: 2000, jobsPerSlot: 500}
)

// emitJobs generates the workload's first n jobs for seed. google-200
// draws the §6.3 GoogleLike mix and re-stamps arrivals to jobsPerSlot
// per slot (the generator's own gaps are at least one slot, which
// leaves the fleet near idle). synth-2k draws the one-phase drain-job
// shape: 1–4 single-core tasks of 2–9 slots.
func (w engineWorkload) emitJobs(n int, seed uint64, emit func(*workload.Job) error) error {
	if w.streamed {
		i := 0
		return trace.DefaultGoogleLike(n, 1, seed).Emit(func(j *workload.Job) error {
			j.Arrival = int64(i / w.jobsPerSlot)
			i++
			return emit(j)
		})
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for i := 0; i < n; i++ {
		j := &workload.Job{
			ID: workload.JobID(i + 1), Name: "synth", App: "bench",
			Arrival: int64(i / w.jobsPerSlot),
			Phases:  []workload.Phase{drainPhase(rng)},
		}
		if err := emit(j); err != nil {
			return err
		}
	}
	return nil
}

// drainPhase draws the one phase of a drain-shaped job: 1–4 single-core
// tasks of 2–9 slots, the shape cmd/dollymp-bench's drains use.
func drainPhase(rng *rand.Rand) workload.Phase {
	return workload.Phase{
		Name: "p", Tasks: 1 + rng.IntN(4), Demand: resources.Cores(1, 2),
		MeanDuration: float64(2 + rng.IntN(8)), SDDuration: 1,
	}
}

func (w engineWorkload) jobList(n int, seed uint64) ([]*workload.Job, error) {
	jobs := make([]*workload.Job, 0, n)
	err := w.emitJobs(n, seed, func(j *workload.Job) error {
		jobs = append(jobs, j)
		return nil
	})
	return jobs, err
}

// writeTrace writes the workload's jobs to path as a streamed trace and
// returns the file size.
func (w engineWorkload) writeTrace(path string, seed uint64) (int64, error) {
	sw, err := trace.CreateStream(path)
	if err != nil {
		return 0, err
	}
	if err := w.emitJobs(w.jobs, seed, sw.Append); err != nil {
		sw.Close()
		return 0, err
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// replay is one set-up engine replay, ready to run.
type replay struct {
	w          engineWorkload
	eng        *sim.Engine
	stream     *trace.FileStream // google-200
	jobs       []*workload.Job   // synth-2k
	traceBytes int64
	sched      *tracedScheduler // traced replays only
	tr         *tracer          // traced replays only
	seen       []bool           // completed job IDs
	dupes      int
	// injectedAt is when each job ID was handed to the engine, since the
	// replay started; order lists the IDs in injection order and done
	// the IDs completed by the Step in progress.
	injectedAt []time.Duration
	order      []workload.JobID
	done       []workload.JobID
}

// setup builds everything a replay needs before its first timed call:
// the jobs (written to and reopened from a trace file for google-200),
// the fleet, the scheduler and the engine. With tr set the scheduler
// is wrapped so its calls are recorded as spans.
func (w engineWorkload) setup(seed uint64, dir string, tr *tracer) (*replay, error) {
	r := &replay{
		w: w, tr: tr, seen: make([]bool, w.jobs+1),
		injectedAt: make([]time.Duration, w.jobs+1),
		order:      make([]workload.JobID, 0, w.jobs),
	}
	if w.streamed {
		path := filepath.Join(dir, w.name+".trace")
		n, err := w.writeTrace(path, seed)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		r.traceBytes = n
		if r.stream, err = trace.OpenStream(path); err != nil {
			return nil, err
		}
	} else {
		var err error
		if r.jobs, err = w.jobList(w.jobs, seed); err != nil {
			return nil, err
		}
	}
	inner, err := core.New(core.WithClones(2))
	if err != nil {
		r.close()
		return nil, err
	}
	var s sched.Scheduler = inner
	if tr != nil {
		r.sched = &tracedScheduler{inner: inner, tr: tr}
		s = r.sched
	}
	r.eng, err = sim.New(sim.Config{
		Cluster:     cluster.LargeFleet(w.fleet, seed),
		Scheduler:   s,
		Seed:        seed,
		Online:      true,
		CompactJobs: true,
		MaxSlots:    1 << 62,
		OnJobComplete: func(m sim.JobMetrics) {
			if int(m.ID) >= len(r.seen) || r.seen[m.ID] {
				r.dupes++
				return
			}
			r.seen[m.ID] = true
			r.done = append(r.done, m.ID)
		},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replay) close() {
	if r.stream != nil {
		r.stream.Close()
	}
}

// next returns the next job to inject, io.EOF after the last.
func (r *replay) next() (*workload.Job, error) {
	if r.stream != nil {
		return r.stream.Next()
	}
	if len(r.jobs) == 0 {
		return nil, io.EOF
	}
	j := r.jobs[0]
	r.jobs = r.jobs[1:]
	return j, nil
}

// replayOut is what one replay measured.
type replayOut struct {
	wall        time.Duration
	jobs        int
	steps       int
	pendingPeak int
	res         sim.Result // a copy: the engine owns the pointer Finalize returns
	clock       int64
	// ack and status summarise, per job, the wall time from handing it
	// to the engine (InjectJob) to the end of the decision round
	// (Engine.Step) that admitted its arrival, and to the end of the one
	// that recorded its completion. Untraced replays only.
	ack, status latency
}

// signature is what must repeat exactly between replays of one seed.
type signature struct {
	clock, flowtime, copies int64
	calls                   int
}

func (o *replayOut) signature() signature {
	return signature{clock: o.clock, flowtime: o.res.TotalFlowtime(),
		copies: o.res.Digest.CopiesLaunched, calls: o.res.SchedCalls}
}

// run replays every job and steps the engine until it is idle. Only
// this is timed. With a tracer, every layer call is recorded as a span.
func (r *replay) run() (*replayOut, error) {
	defer r.close()
	eng, tr := r.eng, r.tr
	out := &replayOut{}
	var ackNs, statusNs []float64
	var start time.Time
	admitted := 0 // leading entries of r.order the engine has admitted
	drained := false
	inject := func() error {
		var at time.Duration
		if tr == nil {
			at = time.Since(start)
		}
		for !drained && eng.PendingArrivals() < window {
			var j *workload.Job
			var err error
			if tr != nil && r.stream != nil {
				sp := tr.begin(spanDecode)
				j, err = r.next()
				tr.end(sp)
			} else {
				j, err = r.next()
			}
			if err == io.EOF {
				drained = true
				break
			}
			if err != nil {
				return err
			}
			if tr != nil {
				sp := tr.begin(spanInject)
				_, err = eng.InjectJob(j)
				tr.end(sp)
			} else {
				_, err = eng.InjectJob(j)
			}
			if err != nil {
				return fmt.Errorf("inject job %d: %w", j.ID, err)
			}
			if int(j.ID) < len(r.injectedAt) {
				r.injectedAt[j.ID] = at
				r.order = append(r.order, j.ID)
			}
			out.jobs++
		}
		if pa := eng.PendingArrivals(); pa > out.pendingPeak {
			out.pendingPeak = pa
		}
		return nil
	}
	start = time.Now()
	if err := inject(); err != nil {
		return nil, err
	}
	for {
		var idle bool
		var err error
		if tr != nil {
			sp := tr.begin(spanStep)
			idle, err = eng.Step()
			tr.end(sp)
		} else {
			pending := eng.PendingArrivals()
			idle, err = eng.Step()
			end := time.Since(start)
			// Arrivals are admitted in injection order: their slots
			// never decrease along the trace.
			for n := pending - eng.PendingArrivals(); n > 0 && admitted < len(r.order); n-- {
				ackNs = append(ackNs, float64(end-r.injectedAt[r.order[admitted]]))
				admitted++
			}
			for _, id := range r.done {
				statusNs = append(statusNs, float64(end-r.injectedAt[id]))
			}
		}
		r.done = r.done[:0]
		if err != nil {
			return nil, err
		}
		out.steps++
		if err := inject(); err != nil {
			return nil, err
		}
		if idle && drained {
			break
		}
	}
	out.wall = time.Since(start)
	if tr == nil && (len(ackNs) != out.jobs || len(statusNs) != out.jobs) {
		return nil, fmt.Errorf("timed %d admissions and %d completions of %d jobs", len(ackNs), len(statusNs), out.jobs)
	}
	out.ack, out.status = summarize(ackNs), summarize(statusNs)
	out.res = *eng.Finalize()
	out.clock = eng.Clock()
	return out, r.checkCompleted(out)
}

// checkCompleted asserts every injected job completed exactly once.
func (r *replay) checkCompleted(o *replayOut) error {
	if o.jobs != r.w.jobs {
		return fmt.Errorf("replayed %d of %d jobs", o.jobs, r.w.jobs)
	}
	if o.res.Completed != o.jobs {
		return fmt.Errorf("engine completed %d of %d jobs", o.res.Completed, o.jobs)
	}
	seen := 0
	for _, ok := range r.seen {
		if ok {
			seen++
		}
	}
	if seen != o.jobs || r.dupes != 0 {
		return fmt.Errorf("%d distinct completions and %d duplicates for %d jobs", seen, r.dupes, o.jobs)
	}
	return nil
}

// certifyPrefix replays the workload's first prefixJobs jobs with a
// recorded trace and certifies it against the model's capacity (Eq. 5),
// precedence (Eq. 7) and completion (Eqs. 6/8) constraints.
func (w engineWorkload) certifyPrefix(seed uint64) error {
	jobs, err := w.jobList(prefixJobs, seed)
	if err != nil {
		return err
	}
	s, err := core.New(core.WithClones(2))
	if err != nil {
		return err
	}
	fleet := cluster.LargeFleet(w.fleet, seed)
	eng, err := sim.New(sim.Config{
		Cluster: fleet, Jobs: jobs, Scheduler: s, Seed: seed, RecordTrace: true,
	})
	if err != nil {
		return err
	}
	res, err := eng.Run()
	if err != nil {
		return err
	}
	if res.Completed != len(jobs) {
		return fmt.Errorf("prefix: completed %d of %d jobs", res.Completed, len(jobs))
	}
	if err := verify.Check(res.Trace, fleet, jobs); err != nil {
		return fmt.Errorf("prefix: %w", err)
	}
	if n := len(verify.JobCompletions(res.Trace)); n != len(jobs) {
		return fmt.Errorf("prefix: trace completes %d of %d jobs", n, len(jobs))
	}
	return nil
}

// tracedScheduler forwards to the DollyMP scheduler and records each
// call as a span nested in the enclosing Engine.Step. It implements
// sched.ArrivalAware, the only optional interface the engine asserts,
// so the engine drives it exactly as it drives the bare scheduler.
type tracedScheduler struct {
	inner interface {
		sched.Scheduler
		sched.ArrivalAware
	}
	tr                       *tracer
	calls, placements, empty int
}

var _ sched.ArrivalAware = (*tracedScheduler)(nil)

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Schedule(ctx sched.Context) []sched.Placement {
	sp := s.tr.begin(spanSchedule)
	ps := s.inner.Schedule(ctx)
	s.tr.end(sp)
	s.calls++
	s.placements += len(ps)
	if len(ps) == 0 {
		s.empty++
	}
	return ps
}

func (s *tracedScheduler) OnJobArrival(ctx sched.Context, js *workload.JobState) {
	sp := s.tr.begin(spanArrival)
	s.inner.OnJobArrival(ctx, js)
	s.tr.end(sp)
}

// minReps is the fewest timed replays a run makes, whatever its length.
const minReps = 3

// setupRuns is the fewest set-ups a run times; setup_s is their median.
// Set-up takes milliseconds on some workloads, so one slow set-up must
// not decide the figure. Set-ups beyond those a run's replays need are
// torn down unused.
const setupRuns = 15

// tracedReps is how many traced replays a --trace 1 run makes.
const tracedReps = 2

// runEngine replays the workload until the run's time is spent, then
// checks the replays agree and certifies a prefix. With o.trace it then
// makes traced replays and reports per-layer metrics instead.
func runEngine(w engineWorkload, o options, dir string) (*result, error) {
	var reps []*replayOut
	var setups, walls, rss []float64
	var rt runtimeCounters
	timedSetup := func() (*replay, error) {
		settle()
		t0 := time.Now()
		r, err := w.setup(o.seed, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return r, nil
	}
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < o.seconds {
		r, err := timedSetup()
		if err != nil {
			return nil, err
		}
		before := readRuntime()
		out, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", len(reps), err)
		}
		rt = rt.add(readRuntime().sub(before))
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		reps = append(reps, out)
		walls = append(walls, out.wall.Seconds())
		rss = append(rss, peak)
		fmt.Fprintf(os.Stderr, "%s replay %d: %d jobs in %.3fs = %.0f jobs/s, peak RSS %.1f MiB\n",
			w.name, len(reps), out.jobs, out.wall.Seconds(), float64(out.jobs)/out.wall.Seconds(), peak)
	}
	for len(setups) < setupRuns {
		r, err := timedSetup()
		if err != nil {
			return nil, err
		}
		r.close()
	}
	want := reps[0].signature()
	for i, rep := range reps[1:] {
		if got := rep.signature(); got != want {
			return nil, fmt.Errorf("replay %d diverged from replay 0: %+v vs %+v", i+1, got, want)
		}
	}
	if err := w.certifyPrefix(o.seed); err != nil {
		return nil, err
	}

	res := newResult(o.trace)
	res.Attempted = int64(len(reps) * w.jobs)
	if !o.trace {
		jobsPerS := make([]float64, len(reps))
		for i, rep := range reps {
			jobsPerS[i] = float64(rep.jobs) / rep.wall.Seconds()
		}
		res.set("jobs_per_s", median(jobsPerS))
		res.set("setup_s", median(setups))
		res.set("peak_rss_mb", median(rss))
		res.set("ok_frac", float64(reps[0].res.Completed)/float64(w.jobs))
		res.set("mean_jct_slots", reps[0].res.MeanFlowtime())
		res.setLatency(latencies(reps))
		return res, nil
	}

	tr := newTracer()
	var traced []*replayOut
	var tracedWalls []float64
	var r *replay
	for len(traced) < tracedReps {
		settle()
		var err error
		if r, err = w.setup(o.seed, dir, tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		out, err := r.run()
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		if got := out.signature(); got != want {
			return nil, fmt.Errorf("traced replay diverged from untraced: %+v vs %+v", got, want)
		}
		if r.sched.calls != out.res.SchedCalls {
			return nil, fmt.Errorf("scheduler wrapper saw %d calls, engine made %d", r.sched.calls, out.res.SchedCalls)
		}
		traced = append(traced, out)
		tracedWalls = append(tracedWalls, out.wall.Seconds())
	}
	res.Attempted += int64(len(traced) * w.jobs)
	if err := tr.write(filepath.Join(outDir, "spans-"+w.name+".tsv")); err != nil {
		return nil, err
	}

	jobs := float64(len(traced) * w.jobs)
	lt := tr.times()
	perJob := func(k spanKind) float64 { return float64(lt.total[k]) / jobs }
	last := traced[len(traced)-1]
	d := last.res.Digest
	s := r.sched // the last traced replay's; every replay is identical
	res.set("trace.decode_ns_per_job", perJob(spanDecode))
	res.set("trace.bytes_per_job", float64(r.traceBytes)/float64(w.jobs))
	res.set("sim.inject_ns_per_job", perJob(spanInject))
	res.set("sim.step_self_ns_per_job", float64(lt.self[spanStep])/jobs)
	res.set("sim.steps", float64(last.steps))
	res.set("sim.pending_peak", float64(last.pendingPeak))
	res.set("sim.copies_per_task", ratio(float64(d.CopiesLaunched), float64(d.TotalTasks)))
	res.set("core.schedule_ns_per_job", perJob(spanSchedule))
	calls := sorted(tr.durations(spanSchedule))
	res.set("core.schedule_us_p50", percentile(calls, 50)/1e3)
	if pct, v, ok := tailPercentile(calls); ok {
		res.set("core.schedule_tail_pct", pct)
		res.set("core.schedule_us_tail", v/1e3)
	}
	res.set("core.on_arrival_ns_per_job", perJob(spanArrival))
	res.set("core.calls", float64(s.calls))
	res.set("core.placements_per_call", ratio(float64(s.placements), float64(s.calls)))
	res.set("core.empty_call_frac", ratio(float64(s.empty), float64(s.calls)))
	res.set("core.clone_placement_frac", ratio(float64(d.CopiesLaunched-d.TotalTasks), float64(d.CopiesLaunched)))
	res.setLatencyTails(latencies(reps))
	res.setRuntime(rt, float64(len(reps)*w.jobs))
	res.set("tracing.overhead_frac", median(tracedWalls)/median(walls)-1)
	return res, nil
}

// latencies gives the median over replays of their ack and status
// latency summaries.
func latencies(reps []*replayOut) (ack, status latency) {
	var a, s []latency
	for _, rep := range reps {
		a, s = append(a, rep.ack), append(s, rep.status)
	}
	return medianLatency(a), medianLatency(s)
}
