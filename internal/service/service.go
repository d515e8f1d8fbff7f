// Package service is the per-shard scheduling loop of the online
// daemon: jobs submitted while the cluster runs enter a bounded
// admission queue and are injected into the engine at the next
// virtual-slot boundary. The engine — single-use and goroutine-confined
// by contract — is owned by exactly one scheduling-loop goroutine; every
// other goroutine (the router, submitters) communicates through the
// admission channel and reads immutable snapshots, so the loop is safe
// under arbitrary concurrent submission without locking the engine.
//
// A Service is always one shard behind shard.Router, which is the only
// API implementation, the edge-admission point and the HTTP mount (a
// P=1 router is the unsharded daemon). This package also holds what the
// router serves: the API interface, the /v1 route table (Routes,
// NewHandler, MuxFor) and the status and error types.
//
// Job lifecycle: queued (accepted into the admission queue) → admitted
// (injected into the engine, arrival slot stamped) → running (first copy
// placed) → completed (flowtime/JCT stamped). A full queue rejects
// SubmitNowait with ErrQueueFull, which the HTTP layer maps to 429 —
// backpressure, not silent dropping; Submit instead waits for space
// until its context expires.
//
// Config.Registry/MetricLabels let the router collect every shard's
// series in one view, and Config.IDBase/IDStride carve the job-ID space
// into disjoint residue classes so IDs stay globally unique without
// cross-shard coordination. The donation API (StealQueued/InjectQueued)
// lets the router's rebalancer migrate still-queued jobs between shards
// without either engine being touched by a foreign goroutine.
//
// Every way a job reaches the loop — Submit/SubmitNowait, InjectQueued,
// ForceRequeue, Restore and Absorb — goes through one primitive,
// enqueueLocked: under the service mutex it checks queue space, journals
// the spec, registers the queued record and sends the job. The entry
// points differ only in their own policy (who assigns the ID, when a
// draining service still accepts, what a failure means to the caller).
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/cluster"
	"dollymp/internal/journal"
	"dollymp/internal/metrics"
	"dollymp/internal/sched"
	"dollymp/internal/sim"
	"dollymp/internal/workload"
)

// ErrQueueFull is returned by SubmitNowait when the admission queue is
// at capacity; the caller should retry later (HTTP 429).
var ErrQueueFull = errors.New("service: admission queue full")

// ErrStopped is returned by Submit after Stop has begun: the service is
// draining and accepts no new work.
var ErrStopped = errors.New("service: stopped")

// ErrAdmissionDenied is the sentinel every *AdmissionError unwraps to:
// the edge admission policy refused the job before it reached the
// queue. Unlike ErrQueueFull this is a policy decision, not a capacity
// fact — the HTTP layer maps it to 429 admission_denied so clients can
// distinguish "the system chose not to take you" from "the queue is
// physically full".
var ErrAdmissionDenied = errors.New("service: admission denied")

// AdmissionError carries the policy's denial verdict: the
// machine-readable reason and the server's retry hint, both surfaced in
// the HTTP error envelope. It unwraps to ErrAdmissionDenied.
type AdmissionError struct {
	// Reason is the policy's denial reason (admission.Reason*).
	Reason string
	// RetryAfter is the server's hint for when retrying is worth it;
	// zero means immediately.
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	if e.Reason == "" {
		return ErrAdmissionDenied.Error()
	}
	return fmt.Sprintf("%s (%s)", ErrAdmissionDenied.Error(), e.Reason)
}

// Unwrap makes errors.Is(err, ErrAdmissionDenied) work.
func (e *AdmissionError) Unwrap() error { return ErrAdmissionDenied }

// ErrNotDrained is returned by Result while the scheduling loop is
// still running — a Stop whose context expired leaves the loop alive,
// and the engine's metrics are only consistent once it has exited.
var ErrNotDrained = errors.New("service: not drained")

// Config configures a Service.
type Config struct {
	// Cluster is the fleet to schedule onto. The service owns it; no
	// other goroutine may touch it after New.
	Cluster *cluster.Cluster
	// Scheduler is the policy; same contract as sim.Config.
	Scheduler sched.Scheduler
	// Seed drives the engine's stochastic draws.
	Seed uint64
	// Deterministic disables duration noise (tests, smoke runs).
	Deterministic bool
	// QueueCap bounds the admission queue; 0 means DefaultQueueCap.
	QueueCap int
	// MaxSlots aborts a runaway virtual clock; 0 means effectively
	// unbounded (the daemon runs until stopped).
	MaxSlots int64

	// Registry receives the service's metric series; nil means a
	// private registry. The shard router injects a shared registry so
	// every shard's series land in one exposition.
	Registry *metrics.Registry
	// MetricLabels are constant labels stamped on every series this
	// service registers (the router passes shard="k"). Nil is fine.
	MetricLabels metrics.Labels

	// IDBase and IDStride carve up the job-ID space: assigned IDs are
	// IDBase, IDBase+IDStride, IDBase+2·IDStride, ... Zero values mean
	// 1 and 1 (the whole space). The router gives shard k base k+1 and
	// stride P, so shard ownership of an ID is (id-1) mod P.
	IDBase   workload.JobID
	IDStride int

	// Journal, when non-nil, records every job lifecycle transition to
	// a crash-safe write-ahead log: `submitted` (with the full spec) is
	// made durable before a submission is acknowledged, and `admitted`,
	// `completed`, `stolen`, and `injected` ride later fsyncs. A nil
	// Journal keeps today's in-memory behavior bit-for-bit. The caller
	// owns the journal (Open/Close and startup replay via Restore); the
	// service only appends. A journal write failure fails the service —
	// the durability contract is broken, and failing loudly beats
	// acknowledging submissions it can no longer promise to keep.
	Journal *journal.Journal
}

// DefaultQueueCap is the admission-queue bound when Config.QueueCap is 0.
const DefaultQueueCap = 1024

// JobState labels a job's position in the service lifecycle.
type JobState string

// Lifecycle states, in order.
const (
	StateQueued    JobState = "queued"
	StateAdmitted  JobState = "admitted"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
)

// ValidState reports whether s names a lifecycle state (the HTTP layer
// validates ?state= filters with it). The empty string is not valid.
func ValidState(s JobState) bool {
	switch s {
	case StateQueued, StateAdmitted, StateRunning, StateCompleted:
		return true
	}
	return false
}

// JobInfo is the externally visible record of one submitted job. Slot
// fields are -1 until the lifecycle reaches them.
type JobInfo struct {
	ID   workload.JobID `json:"id"`
	Name string         `json:"name"`
	App  string         `json:"app"`
	// Tenant is the submitter label the job carried, if any — the key
	// per-tenant admission decisions and ?tenant= filters use.
	Tenant     string   `json:"tenant,omitempty"`
	State      JobState `json:"state"`
	Tasks      int      `json:"tasks"`
	Arrival    int64    `json:"arrival_slot"`
	FirstStart int64    `json:"first_start_slot"`
	Finish     int64    `json:"finish_slot"`
	// Flowtime is finish − arrival in slots: the job's JCT, the
	// paper's primary metric, stamped at completion.
	Flowtime int64 `json:"flowtime_slots"`
}

// JobFilter selects jobs for Jobs. The zero value selects everything.
type JobFilter struct {
	// State keeps only jobs in that lifecycle state; empty keeps all.
	State JobState
	// Tenant keeps only jobs with that tenant label; empty keeps all.
	// (There is no way to select specifically tenant-less jobs — the
	// empty string means "no filter", matching ?tenant= semantics.)
	Tenant string
}

// Counts summarizes the service's job accounting.
type Counts struct {
	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Rejected  int64 `json:"rejected"`
	// Denied counts submissions refused by the edge admission policy
	// (never assigned an ID); Rejected counts queue-full backpressure.
	// Only the router sets it — a loop has no policy — and omitempty
	// keeps policy-less deployments' JSON unchanged.
	Denied int64 `json:"denied,omitempty"`
}

// Add accumulates other into c (the router sums per-shard counts).
func (c *Counts) Add(other Counts) {
	c.Submitted += other.Submitted
	c.Admitted += other.Admitted
	c.Completed += other.Completed
	c.Rejected += other.Rejected
	c.Denied += other.Denied
}

// Load is a shard's routing signal: how much accepted-but-unfinished
// work it holds. The router compares loads lexicographically — queue
// depth first (jobs not even admitted yet), then outstanding task
// volume (admitted work still running).
type Load struct {
	// QueueDepth is the number of jobs waiting in the admission queue.
	QueueDepth int
	// Jobs is submitted − completed: accepted jobs not yet finished.
	Jobs int64
	// Tasks is the outstanding task volume: total tasks of accepted,
	// unfinished jobs.
	Tasks int64
}

// Less orders loads lexicographically by (queue depth, outstanding
// tasks, outstanding jobs): the power-of-two-choices comparison.
func (l Load) Less(other Load) bool {
	if l.QueueDepth != other.QueueDepth {
		return l.QueueDepth < other.QueueDepth
	}
	if l.Tasks != other.Tasks {
		return l.Tasks < other.Tasks
	}
	return l.Jobs < other.Jobs
}

// ShardStatus is one scheduling loop's slice of a /v1/shards response.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	QueueDepth int    `json:"queue_depth"`
	ActiveJobs int    `json:"active_jobs"`
	Clock      int64  `json:"clock_slots"`
	Draining   bool   `json:"draining"`
	Jobs       Counts `json:"jobs"`
	// ReplayedJobs counts jobs restored from this shard's journal at
	// startup (0 when journaling is off or the journal was empty).
	ReplayedJobs int64 `json:"replayed_jobs,omitempty"`
}

// JournalStatus is the recovery-state slice of a status response:
// whether intake is journaled, what this process has written, and what
// the startup replay recovered.
type JournalStatus struct {
	Enabled bool `json:"enabled"`
	// Records counts journal records appended by this process.
	Records int64 `json:"records_written"`
	// ReplayedRecords counts intact records scanned at startup.
	ReplayedRecords int64 `json:"replayed_records"`
	// ReplayedJobs counts jobs restored at startup (completed history
	// plus re-enqueued unfinished work); ReplayedPending is the
	// re-enqueued subset.
	ReplayedJobs    int64 `json:"replayed_jobs"`
	ReplayedPending int64 `json:"replayed_pending"`
	// TruncatedBytes counts torn-tail bytes dropped at startup.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Segments and StaleSegments describe the journal directory of a
	// sharded deployment: segments in use by this topology, and
	// leftover segments of a previous one replayed read-only. Both are
	// 0 for a single journaled service.
	Segments      int `json:"segments,omitempty"`
	StaleSegments int `json:"stale_segments,omitempty"`
}

// Add accumulates other into js (the router sums per-shard status).
func (js *JournalStatus) Add(other JournalStatus) {
	js.Enabled = js.Enabled || other.Enabled
	js.Records += other.Records
	js.ReplayedRecords += other.ReplayedRecords
	js.ReplayedJobs += other.ReplayedJobs
	js.ReplayedPending += other.ReplayedPending
	js.TruncatedBytes += other.TruncatedBytes
	js.Segments += other.Segments
	js.StaleSegments += other.StaleSegments
}

// ServerInfo is one server's slice of a cluster snapshot.
type ServerInfo struct {
	ID       int     `json:"id"`
	Name     string  `json:"name"`
	Rack     int     `json:"rack"`
	Speed    float64 `json:"speed"`
	CPUMilli int64   `json:"cpu_milli"`
	MemMiB   int64   `json:"mem_mib"`
	UsedCPU  int64   `json:"used_cpu_milli"`
	UsedMem  int64   `json:"used_mem_mib"`
	Failed   bool    `json:"failed"`
}

// ClusterSnapshot is a consistent read of cluster and queue state, taken
// by the scheduling loop after each step.
type ClusterSnapshot struct {
	Scheduler      string       `json:"scheduler"`
	Shards         int          `json:"shards"`
	Clock          int64        `json:"clock_slots"`
	ActiveJobs     int          `json:"active_jobs"`
	PendingArrival int          `json:"pending_arrivals"`
	QueueDepth     int          `json:"queue_depth"`
	Draining       bool         `json:"draining"`
	Jobs           Counts       `json:"jobs"`
	UtilizationCPU float64      `json:"utilization_cpu"`
	UtilizationMem float64      `json:"utilization_mem"`
	Servers        []ServerInfo `json:"servers"`
	// Journal exposes recovery state; nil when journaling is off, so
	// the snapshot of an unjournaled service is unchanged.
	Journal *JournalStatus `json:"journal,omitempty"`
}

// Service is one shard's scheduling loop. Create with New, start with
// Start, submit with Submit or SubmitNowait, stop with Stop; in a
// deployment shard.Router does all four.
type Service struct {
	cfg   Config
	eng   *sim.Engine
	subCh chan *workload.Job

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
	started  atomic.Bool

	mu         sync.RWMutex
	stopping   bool // guarded by mu: serializes Submit against drain exit
	loopExited bool // guarded by mu: the loop took its drain-exit decision
	jobs       map[workload.JobID]*JobInfo
	nextID     workload.JobID
	counts     Counts
	tasksOut   int64 // outstanding task volume of accepted, unfinished jobs
	clock      int64
	snap       ClusterSnapshot
	err        error
	admitCh    chan struct{} // closed+replaced by wakeLocked: queue-space broadcast
	jnlStat    JournalStatus // guarded by mu; zero when cfg.Journal is nil

	reg        *metrics.Registry
	mSubmitted *metrics.Counter
	mAdmitted  *metrics.Counter
	mCompleted *metrics.Counter
	mRejected  *metrics.Counter
	mQueue     *metrics.Gauge
	mActive    *metrics.Gauge
	mClock     *metrics.Gauge
	mUtilCPU   *metrics.Gauge
	mUtilMem   *metrics.Gauge
	mJCT       *metrics.Histogram

	// Journal metrics; nil when cfg.Journal is nil (registering them
	// unconditionally would change the exposition of an unjournaled
	// service).
	mJnlRecords  *metrics.Counter
	mJnlReplayed *metrics.Gauge
}

// New validates the configuration and builds a stopped service; call
// Start to launch the scheduling loop.
func New(cfg Config) (*Service, error) {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.QueueCap < 1 {
		return nil, fmt.Errorf("service: queue capacity %d < 1", cfg.QueueCap)
	}
	if cfg.MaxSlots == 0 {
		cfg.MaxSlots = int64(1) << 62
	}
	if cfg.IDBase == 0 {
		cfg.IDBase = 1
	}
	if cfg.IDStride == 0 {
		cfg.IDStride = 1
	}
	if cfg.IDBase < 1 || cfg.IDStride < 1 {
		return nil, fmt.Errorf("service: invalid ID space (base %d, stride %d)", cfg.IDBase, cfg.IDStride)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	s := &Service{
		cfg: cfg,
		// Twice QueueCap: enqueues stop at QueueCap, and the space above
		// it is the reserve ForceRequeue gives stolen jobs back into.
		subCh:   make(chan *workload.Job, 2*cfg.QueueCap),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		jobs:    make(map[workload.JobID]*JobInfo),
		nextID:  cfg.IDBase,
		admitCh: make(chan struct{}),
		reg:     cfg.Registry,
	}
	base := cfg.MetricLabels
	lbl := func(extra metrics.Labels) metrics.Labels { return metrics.Union(base, extra) }
	s.mSubmitted = s.reg.Counter("dollymp_jobs_submitted_total", "Jobs accepted into the admission queue.", lbl(nil))
	s.mAdmitted = s.reg.Counter("dollymp_jobs_admitted_total", "Jobs injected into the running engine.", lbl(nil))
	s.mCompleted = s.reg.Counter("dollymp_jobs_completed_total", "Jobs that finished with a stamped JCT.", lbl(nil))
	s.mRejected = s.reg.Counter("dollymp_jobs_rejected_total", "Submissions rejected by queue backpressure.", lbl(nil))
	s.mQueue = s.reg.Gauge("dollymp_queue_depth", "Jobs waiting in the admission queue.", lbl(nil))
	s.mActive = s.reg.Gauge("dollymp_active_jobs", "Arrived, unfinished jobs in the engine.", lbl(nil))
	s.mClock = s.reg.Gauge("dollymp_virtual_clock_slots", "Engine virtual time in slots.", lbl(nil))
	s.mUtilCPU = s.reg.Gauge("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "cpu"}))
	s.mUtilMem = s.reg.Gauge("dollymp_cluster_utilization", "Fraction of cluster capacity allocated.", lbl(metrics.Labels{"resource": "mem"}))
	s.mJCT = s.reg.Histogram("dollymp_job_completion_slots", "Job completion time (flowtime) in slots.",
		[]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}, lbl(nil))
	if cfg.Journal != nil {
		s.jnlStat.Enabled = true
		s.mJnlRecords = s.reg.Counter("dollymp_journal_records_total", "Journal records appended by this process.", lbl(nil))
		s.mJnlReplayed = s.reg.Gauge("dollymp_journal_replayed_jobs", "Jobs restored from the journal at startup.", lbl(nil))
	}

	eng, err := sim.New(sim.Config{
		Cluster:       cfg.Cluster,
		Scheduler:     cfg.Scheduler,
		Seed:          cfg.Seed,
		Deterministic: cfg.Deterministic,
		MaxSlots:      cfg.MaxSlots,
		Online:        true,
		OnJobStart:    s.onJobStart,
		OnJobComplete: s.onJobComplete,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.snap = ClusterSnapshot{Scheduler: cfg.Scheduler.Name(), Shards: 1, Servers: serverInfos(cfg.Cluster)}
	return s, nil
}

// Start launches the scheduling loop. Idempotent.
func (s *Service) Start() {
	if s.started.CompareAndSwap(false, true) {
		go s.run()
	}
}

// RefreshGauges re-publishes gauges that drift between loop publishes
// (today: queue depth). Called at scrape time so an idle engine never
// serves a stale gauge.
func (s *Service) RefreshGauges() { s.mQueue.Set(float64(len(s.subCh))) }

// Submit validates a job and enqueues it, waiting for queue space if the
// admission queue is full: the cancellable-queue-wait entry point. It
// returns ctx.Err() if the context expires first and ErrStopped once a
// drain begins. Use SubmitNowait for immediate-backpressure (429)
// semantics.
func (s *Service) Submit(ctx context.Context, j *workload.Job) (workload.JobID, error) {
	if err := precheck(j); err != nil {
		return 0, err
	}
	for {
		// Grab the admission broadcast channel before trying: any admit
		// after this point closes admitCh, so a full-queue failure below
		// cannot miss the wakeup that frees space.
		s.mu.RLock()
		wait := s.admitCh
		s.mu.RUnlock()
		id, err := s.submit(j, false)
		if !errors.Is(err, ErrQueueFull) {
			return id, err
		}
		select {
		case <-wait:
		case <-s.stopCh:
			return 0, ErrStopped
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// SubmitNowait validates a job, assigns it a fresh ID (any
// caller-provided ID is overwritten — the service owns its ID space),
// and enqueues it. It never blocks: a full queue returns ErrQueueFull.
// The service takes ownership of the job. The stopping check and the
// enqueue happen under one critical section, so a job accepted here is
// always seen by the drain — Stop never strands an accepted job.
func (s *Service) SubmitNowait(j *workload.Job) (workload.JobID, error) {
	if err := precheck(j); err != nil {
		return 0, err
	}
	return s.submit(j, true)
}

// precheck is the structural validation that precedes any queue
// interaction. Edge admission is not the loop's business: the router
// polices external submissions once, before it picks a shard.
func precheck(j *workload.Job) error {
	if j == nil {
		return fmt.Errorf("service: nil job")
	}
	if err := j.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// submit assigns an ID and enqueues a prechecked job. Callers must have
// run precheck first. The job takes the next free ID, and the allocator
// advances only once the job is in the queue, so a rejected submission
// leaves the ID space untouched.
func (s *Service) submit(j *workload.Job, countReject bool) (workload.JobID, error) {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	id := s.nextID
	j.ID = id
	seq, err := s.enqueueLocked(j, journal.OpSubmitted, false)
	switch {
	case err == nil:
		s.nextID += workload.JobID(s.cfg.IDStride)
		s.mSubmitted.Inc()
	case errors.Is(err, ErrQueueFull) && countReject:
		// Counter and count move inside one critical section, so a
		// /metrics scrape never disagrees with /v1 accounting.
		s.counts.Rejected++
		s.mRejected.Inc()
	}
	s.mu.Unlock()
	if err != nil {
		if !errors.Is(err, ErrQueueFull) {
			s.fail(err)
		}
		return 0, err
	}
	if s.cfg.Journal != nil {
		// Group-commit outside the lock: the submission is acknowledged
		// only once its record is on disk, and concurrent submitters
		// share one fsync. The job is already queued; if the disk
		// refuses, the service fails loudly rather than keep accepting
		// work it cannot promise to remember.
		if err := s.cfg.Journal.Commit(seq); err != nil {
			err = fmt.Errorf("service: journal submit %d: %w", id, err)
			s.fail(err)
			return 0, err
		}
	}
	return id, nil
}

// enqueueLocked is the one way a job enters the admission queue; every
// entry point wraps it with its own policy. The caller holds mu and j
// carries its final ID. A queue holding QueueCap jobs — or, with
// reserve, the channel's whole capacity — returns ErrQueueFull. Otherwise
// the op record with the full spec is appended (and so marshaled)
// BEFORE the send, because the send hands j to the loop, which rewrites
// its arrival outside mu. A failed append returns with nothing
// registered or sent; the caller fails the service after releasing mu.
// The job is registered before the send, since the loop may admit it
// immediately. The record is durable only after the caller commits seq.
func (s *Service) enqueueLocked(j *workload.Job, op journal.Op, reserve bool) (seq uint64, err error) {
	limit := s.cfg.QueueCap
	if reserve {
		limit = cap(s.subCh)
	}
	if len(s.subCh) >= limit {
		return 0, ErrQueueFull
	}
	j.Arrival = 0 // clamped to the live clock at injection
	seq, err = s.journalLocked(journal.Record{Op: op, ID: j.ID, Job: j})
	if err != nil {
		return 0, err
	}
	tasks := j.TotalTasks()
	s.jobs[j.ID] = &JobInfo{
		ID: j.ID, Name: j.Name, App: j.App, Tenant: j.Tenant, State: StateQueued,
		Tasks: tasks, Arrival: -1, FirstStart: -1, Finish: -1, Flowtime: -1,
	}
	s.subCh <- j // space checked above; every sender serializes on mu
	s.counts.Submitted++
	s.tasksOut += int64(tasks)
	return seq, nil
}

// completedLocked records a replayed completed job as lifecycle
// history: its record, counts and JCT observation, so counters stay
// consistent with /v1 across a restart or takeover. Caller holds mu.
func (s *Service) completedLocked(rj *journal.ReplayJob) {
	info := &JobInfo{
		ID: rj.ID, State: StateCompleted,
		Arrival: rj.Finish - rj.Flowtime, FirstStart: -1,
		Finish: rj.Finish, Flowtime: rj.Flowtime,
	}
	if j := rj.Job; j != nil {
		info.Name, info.App, info.Tenant, info.Tasks = j.Name, j.App, j.Tenant, j.TotalTasks()
	}
	s.jobs[rj.ID] = info
	s.counts.Submitted++
	s.counts.Completed++
	s.mSubmitted.Inc()
	s.mCompleted.Inc()
	s.mJCT.Observe(float64(rj.Flowtime))
}

// wakeLocked broadcasts to blocked Submit callers — freed queue space
// or a drain — by closing the current admission channel and replacing
// it; waiters that grabbed the old channel wake and retry. Caller holds
// mu.
func (s *Service) wakeLocked() {
	close(s.admitCh)
	s.admitCh = make(chan struct{})
}

// journalLocked appends one record to the configured journal (a no-op
// returning 0 when journaling is off). Callers hold mu, which gives the
// journal the same total order as the in-memory lifecycle; the record
// is durable only after a Commit covering seq. The returned error is
// for the caller to surface after releasing mu — fail locks mu itself.
func (s *Service) journalLocked(rec journal.Record) (seq uint64, err error) {
	if s.cfg.Journal == nil {
		return 0, nil
	}
	seq, err = s.cfg.Journal.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("service: journal %s %d: %w", rec.Op, rec.ID, err)
	}
	s.jnlStat.Records++
	s.mJnlRecords.Inc()
	return seq, nil
}

// StealQueued removes and returns up to max still-queued jobs — the
// work-stealing donation path. Only jobs sitting in the admission queue
// are stealable: once the loop has admitted a job into its engine it is
// owned by that engine for good. The extraction runs entirely under mu
// (queue receive, lifecycle-record removal, accounting), so it respects
// the single-writer contract — the engine is never touched — and a
// racing admit simply wins the job: each queue entry goes to exactly
// one of the loop or the thief. A draining service donates nothing; its
// own loop is already committed to finishing the queue.
//
// The caller (the shard rebalancer) takes ownership of the returned
// jobs and must re-home every one of them via InjectQueued or, as a
// last resort, ForceRequeue; the jobs keep their assigned IDs. At most
// QueueCap jobs are handed out, which is what ForceRequeue's reserve
// holds.
func (s *Service) StealQueued(max int) []*workload.Job {
	max = min(max, s.cfg.QueueCap)
	if max <= 0 {
		return nil
	}
	var jerr error
	defer func() {
		if jerr != nil {
			s.fail(jerr)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return nil
	}
	var out []*workload.Job
	for len(out) < max {
		select {
		case j := <-s.subCh:
			if info := s.jobs[j.ID]; info != nil {
				s.tasksOut -= int64(info.Tasks)
				delete(s.jobs, j.ID)
				// Decrement only alongside a removed lifecycle record:
				// a queue entry with no record was already accounted
				// away (a pathological double-steal), and decrementing
				// again would skew the deployment-wide Submitted
				// invariant negative.
				s.counts.Submitted--
			}
			if _, err := s.journalLocked(journal.Record{Op: journal.OpStolen, ID: j.ID}); err != nil && jerr == nil {
				jerr = err
			}
			out = append(out, j)
		default:
			// Queue empty (or the loop drained the rest first).
			goto drained
		}
	}
drained:
	if len(out) > 0 {
		// The steal freed queue space: wake blocked Submit waiters just
		// like an admission does.
		s.wakeLocked()
	}
	return out
}

// InjectQueued accepts migrated jobs that already carry IDs from
// another shard's residue class — the receiving half of the donation
// path. Each job goes through the same enqueue as a fresh submission,
// journaled as `injected`, except that the service does not assign IDs
// and does not bump the submission metric (the job was already counted
// where it first arrived; Counts.Submitted moves shard-to-shard so the
// deployment-wide sum is invariant). Returns how many jobs were
// accepted, always a prefix of jobs — a full queue, a draining service
// or a failed journal append stops the intake and the caller re-homes
// the rest. A failed append also fails the service.
func (s *Service) InjectQueued(jobs []*workload.Job) int {
	var jerr error
	defer func() {
		if jerr != nil {
			s.fail(jerr)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return 0
	}
	for n, j := range jobs {
		// The injected record carries the full spec so this shard's
		// segment replays alone; durability rides the next fsync —
		// replay dedupes against the donor's segment either way.
		if _, err := s.enqueueLocked(j, journal.OpInjected, false); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				jerr = err
			}
			return n
		}
	}
	return len(jobs)
}

// ForceRequeue puts jobs stolen from this service back — the
// last-resort leg of a migration no shard could take, the victim
// included: the targets filled or started draining mid-flight, and
// submitters woken by the steal refilled the space it freed. The jobs
// go into the queue's reserve above QueueCap, even on a draining
// service; one migration's steal (at most QueueCap jobs) always fits,
// and the router runs one migration at a time. A job that still cannot
// be requeued (journal append failed, or the loop already took its
// drain-exit decision — unreachable under the router, whose Stop
// quiesces the rebalancer first) fails the service loudly instead of
// being silently dropped. A draining-but-running loop still finishes
// its queue, so requeued jobs complete; the loop-exit decision and this
// enqueue share mu, so the loop either sees the refilled queue and
// keeps draining or had already exited and the requeue is refused.
func (s *Service) ForceRequeue(jobs []*workload.Job) {
	s.mu.Lock()
	var stranded []workload.JobID
	var jerr error
	for _, j := range jobs {
		if !s.loopExited {
			_, err := s.enqueueLocked(j, journal.OpInjected, true)
			if err == nil {
				continue
			}
			if jerr == nil && !errors.Is(err, ErrQueueFull) {
				jerr = err
			}
		}
		stranded = append(stranded, j.ID)
	}
	s.mu.Unlock()
	if jerr != nil {
		s.fail(jerr)
	}
	if len(stranded) > 0 {
		s.fail(fmt.Errorf("service: %d migrated jobs could not be requeued (first: %d)", len(stranded), stranded[0]))
	}
}

// Restore seeds the service from replayed journal state; it must run
// after New and before Start. Completed jobs come back as lifecycle
// history (record, counts, and JCT observation — so counters stay
// consistent with /v1 across a restart); unfinished jobs are
// re-enqueued exactly like a fresh submission, keeping their IDs. The
// engine is single-use, so replay re-injects through the admission
// queue rather than resurrecting engine state: a previously admitted
// job restarts from queued, its original arrival slot and partial
// progress intentionally gone. Restored IDs advance the ID allocator
// past them so new submissions never collide. records and truncated
// are the segment-scan stats for status reporting.
//
// Re-enqueued jobs are re-journaled as `injected` records (and synced
// before Restore returns), so a segment inherited from a different
// shard topology can be retired: the job's spec now lives in this
// shard's own segment.
func (s *Service) Restore(jobs []*journal.ReplayJob, records, truncated int64) error {
	if s.started.Load() {
		return errors.New("service: Restore after Start")
	}
	s.mu.Lock()
	var seq uint64
	for _, rj := range jobs {
		if rj.ID < 1 || s.jobs[rj.ID] != nil {
			s.mu.Unlock()
			return fmt.Errorf("service: replayed job %d is invalid or duplicated", rj.ID)
		}
		s.bumpNextID(rj.ID)
		if rj.Outcome == journal.OutcomeCompleted {
			s.completedLocked(rj)
			continue
		}
		if rj.Job == nil {
			s.mu.Unlock()
			return fmt.Errorf("service: replayed job %d has no spec", rj.ID)
		}
		rj.Job.ID = rj.ID
		sq, err := s.enqueueLocked(rj.Job, journal.OpInjected, false)
		if err != nil {
			s.mu.Unlock()
			if errors.Is(err, ErrQueueFull) {
				return fmt.Errorf("service: replayed backlog exceeds queue capacity %d at job %d (restart with a larger queue)",
					s.cfg.QueueCap, rj.ID)
			}
			return err
		}
		seq = sq
		s.mSubmitted.Inc()
		s.jnlStat.ReplayedPending++
	}
	s.jnlStat.ReplayedJobs += int64(len(jobs))
	s.jnlStat.ReplayedRecords += records
	s.jnlStat.TruncatedBytes += truncated
	if s.mJnlReplayed != nil {
		s.mJnlReplayed.Set(float64(s.jnlStat.ReplayedJobs))
	}
	s.mu.Unlock()
	if s.cfg.Journal != nil && seq > 0 {
		if err := s.cfg.Journal.Commit(seq); err != nil {
			return fmt.Errorf("service: journal restore: %w", err)
		}
	}
	return nil
}

// Absorb is the runtime counterpart of Restore: it accepts jobs
// replayed from a dead peer's adopted journal segments while this
// service is live and scheduling. Completed jobs become lifecycle
// history (counts and JCT observations included, so the deployment-wide
// accounting survives the takeover); pending jobs are re-enqueued like
// a fresh submission, keeping their IDs from the dead peer's residue
// class. Everything absorbed is re-journaled into this service's own
// segment — completed as `completed` records (with the spec as an
// `injected` record when the replay preserved one), pending as
// `injected` records — and committed before Absorb returns, so the
// adopted segments can be retired: this journal now replays alone.
//
// Jobs already known to this service are skipped (a chained takeover
// may replay work that migrated here earlier). The whole batch is
// validated and capacity-checked first: if the pending subset does not
// fit the free queue space, nothing is absorbed and the caller can
// retry elsewhere — a half-adopted journal must not be retired.
// Returns how many jobs were absorbed (skips excluded).
func (s *Service) Absorb(jobs []*journal.ReplayJob) (int, error) {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return 0, ErrStopped
	}
	free := s.cfg.QueueCap - len(s.subCh)
	need := 0
	for _, rj := range jobs {
		if rj.ID < 1 {
			s.mu.Unlock()
			return 0, fmt.Errorf("service: absorb: invalid job id %d", rj.ID)
		}
		if s.jobs[rj.ID] != nil {
			continue
		}
		if rj.Outcome != journal.OutcomeCompleted {
			if rj.Job == nil {
				s.mu.Unlock()
				return 0, fmt.Errorf("service: absorb: pending job %d has no spec", rj.ID)
			}
			need++
		}
	}
	if need > free {
		s.mu.Unlock()
		return 0, fmt.Errorf("service: absorb: %d pending jobs exceed free queue space %d: %w", need, free, ErrQueueFull)
	}
	var seq uint64
	absorbed, pending := 0, 0
	for _, rj := range jobs {
		if s.jobs[rj.ID] != nil {
			continue
		}
		s.bumpNextID(rj.ID)
		var err error
		if rj.Outcome == journal.OutcomeCompleted {
			s.completedLocked(rj)
			if rj.Job != nil {
				seq, err = s.journalLocked(journal.Record{Op: journal.OpInjected, ID: rj.ID, Job: rj.Job})
			}
			if err == nil {
				seq, err = s.journalLocked(journal.Record{Op: journal.OpCompleted, ID: rj.ID, Finish: rj.Finish, Flowtime: rj.Flowtime})
			}
		} else {
			rj.Job.ID = rj.ID
			// Pre-checked against free space above.
			if seq, err = s.enqueueLocked(rj.Job, journal.OpInjected, false); err == nil {
				s.mSubmitted.Inc()
				pending++
			}
		}
		if err != nil {
			s.mu.Unlock()
			s.fail(err)
			return absorbed, err
		}
		absorbed++
	}
	s.jnlStat.ReplayedJobs += int64(absorbed)
	s.jnlStat.ReplayedPending += int64(pending)
	if s.mJnlReplayed != nil {
		s.mJnlReplayed.Set(float64(s.jnlStat.ReplayedJobs))
	}
	s.mu.Unlock()
	if s.cfg.Journal != nil && seq > 0 {
		// Durable before the caller retires the adopted segments: the
		// absorbed jobs' only remaining home is this journal.
		if err := s.cfg.Journal.Commit(seq); err != nil {
			err = fmt.Errorf("service: journal absorb: %w", err)
			s.fail(err)
			return absorbed, err
		}
	}
	return absorbed, nil
}

// bumpNextID advances the ID allocator past a restored ID, staying on
// this service's residue class. Caller holds mu.
func (s *Service) bumpNextID(id workload.JobID) {
	if id < s.nextID {
		return
	}
	stride := workload.JobID(s.cfg.IDStride)
	d := (id - s.cfg.IDBase) % stride // ≥ 0: id ≥ nextID ≥ IDBase
	s.nextID = id + stride - d
}

// Job returns the lifecycle record for one job.
func (s *Service) Job(id workload.JobID) (JobInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return *info, true
}

// Jobs returns the lifecycle records matching the filter, sorted by ID.
func (s *Service) Jobs(f JobFilter) []JobInfo {
	s.mu.RLock()
	out := make([]JobInfo, 0, len(s.jobs))
	for _, info := range s.jobs {
		if f.State != "" && info.State != f.State {
			continue
		}
		if f.Tenant != "" && info.Tenant != f.Tenant {
			continue
		}
		out = append(out, *info)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts returns the current job accounting.
func (s *Service) Counts() Counts {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counts
}

// Load returns the routing signal: queue depth plus outstanding job and
// task volume. Cheap enough for the router to call on every placement.
// All three fields are read under one critical section so p2c
// comparisons never see a torn (QueueDepth, Tasks) pair — the queue
// length and the accounting it must agree with change together under mu
// on the submit and steal paths.
func (s *Service) Load() Load {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Load{
		QueueDepth: len(s.subCh),
		Jobs:       s.counts.Submitted - s.counts.Completed,
		Tasks:      s.tasksOut,
	}
}

// AdmissionSnapshot implements admission.SnapshotProvider: this shard's
// pressure, which the router sums into the deployment view its edge
// policy decides on. Queue depth, cap, and the loop's last published
// engine state are read under one critical section.
func (s *Service) AdmissionSnapshot() admission.Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return admission.Snapshot{
		QueueDepth:      len(s.subCh),
		QueueCap:        s.cfg.QueueCap,
		ActiveJobs:      s.snap.ActiveJobs,
		Clock:           s.clock,
		PendingArrivals: s.snap.PendingArrival,
	}
}

// AdmissionStatus is the /v1/admission response: which edge policy
// guards the queue and its cumulative decision accounting.
type AdmissionStatus struct {
	// Policy names the active policy; "none" when submissions are
	// unpoliced.
	Policy string `json:"policy"`
	// Denied counts submissions this endpoint refused by policy (same
	// number as Counts.Denied).
	Denied int64 `json:"denied"`
	// Stats is the policy's own accounting (per-tenant breakdown for
	// fair policies); absent when Policy is "none".
	Stats *admission.Stats `json:"stats,omitempty"`
}

// Add folds another endpoint's status into a (the gateway sums member
// views; policy names join with "+" when they differ).
func (a *AdmissionStatus) Add(other AdmissionStatus) {
	if a.Policy != other.Policy {
		if a.Policy == "" || a.Policy == "none" {
			a.Policy = other.Policy
		} else if other.Policy != "" && other.Policy != "none" {
			a.Policy += "+" + other.Policy
		}
	}
	a.Denied += other.Denied
	if other.Stats == nil {
		return
	}
	if a.Stats == nil {
		merged := *other.Stats
		a.Stats = &merged
		if other.Stats.Tenants != nil {
			a.Stats.Tenants = make(map[string]admission.TenantStats, len(other.Stats.Tenants))
			for k, v := range other.Stats.Tenants {
				a.Stats.Tenants[k] = v
			}
		}
		return
	}
	a.Stats.Admitted += other.Stats.Admitted
	a.Stats.Denied += other.Stats.Denied
	for k, v := range other.Stats.Tenants {
		if a.Stats.Tenants == nil {
			a.Stats.Tenants = make(map[string]admission.TenantStats)
		}
		t := a.Stats.Tenants[k]
		t.Admitted += v.Admitted
		t.Denied += v.Denied
		t.Weight = v.Weight
		a.Stats.Tenants[k] = t
	}
}

// Draining reports whether a drain has begun (Stop called or the loop
// failed). Exposed so the router and health checks see shard state
// without building a full snapshot.
func (s *Service) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stopping
}

// Ready reports whether the service is fully serving: the scheduling
// loop has been started and neither a drain nor a terminal error has
// begun. Restore runs before Start, so a journaled restart is not ready
// until its replay is finished and re-journaled. The router's Ready
// (/readyz) requires it of every shard.
func (s *Service) Ready() bool {
	if !s.started.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.stopping && s.err == nil
}

// Status returns the service's slice of a /v1/shards response, with
// Shard left at 0 — the router stamps the index. The queue depth is
// snapshotted under the same critical section as the counts, so
// /v1/shards rows are internally consistent.
func (s *Service) Status() ShardStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return ShardStatus{
		QueueDepth:   len(s.subCh),
		ActiveJobs:   s.snap.ActiveJobs,
		Clock:        s.clock,
		Draining:     s.stopping,
		Jobs:         s.counts,
		ReplayedJobs: s.jnlStat.ReplayedJobs,
	}
}

// Snapshot returns the most recent cluster/queue snapshot. The queue
// depth, counts, and draining flag are read live under one critical
// section; everything else is the state the loop published after its
// last step.
func (s *Service) Snapshot() ClusterSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.snap
	snap.Jobs = s.counts
	snap.Draining = s.stopping
	snap.QueueDepth = len(s.subCh)
	if s.cfg.Journal != nil {
		js := s.jnlStat
		snap.Journal = &js
	}
	return snap
}

// Err returns the scheduling loop's terminal error, if any.
func (s *Service) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.err
}

// Stop begins a graceful drain: no new submissions are accepted, queued
// jobs are still admitted, and the loop runs until every in-flight job
// completes (or ctx expires, in which case the loop is left running and
// the context error returned).
func (s *Service) Stop(ctx context.Context) error {
	s.Start() // a never-started service must still drain trivially
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopCh) })
	select {
	case <-s.doneCh:
		return s.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result finalizes and returns the engine's accumulated metrics. It is
// only valid once the scheduling loop has exited (Stop returned nil);
// while the loop still runs — e.g. Stop gave up on an expired context —
// it returns ErrNotDrained instead of touching the live engine.
func (s *Service) Result() (*sim.Result, error) {
	select {
	case <-s.doneCh:
		return s.eng.Finalize(), nil
	default:
		return nil, ErrNotDrained
	}
}

// run is the single-writer scheduling loop: the only goroutine that may
// touch the engine or the cluster after Start.
func (s *Service) run() {
	defer close(s.doneCh)
	// pending is the highest admitted-record journal sequence not yet
	// covered by a Commit. The loop admits a whole burst first and then
	// commits once, so under load the fsync cost of making admitted
	// records durable amortizes across the burst instead of being paid
	// per job (submitted records are still synced per-ack in submit).
	var pending uint64
	flush := func() {
		if pending == 0 {
			return
		}
		seq := pending
		pending = 0
		if err := s.cfg.Journal.Commit(seq); err != nil {
			s.fail(fmt.Errorf("service: journal admit commit: %w", err))
		}
	}
	for {
		// Admit everything waiting, so submissions land at the next
		// slot boundary rather than one event later.
		for {
			select {
			case j := <-s.subCh:
				if seq := s.admit(j); seq > pending {
					pending = seq
				}
				continue
			default:
			}
			break
		}
		flush()
		if s.Err() != nil {
			return
		}
		if s.eng.Idle() {
			s.publish()
			// The exit decision holds the lock Submit and the donation
			// API write under, so every accepted job is either visible
			// in the queue here or its submission/requeue ran after the
			// decision and was refused (stopping / loopExited).
			s.mu.Lock()
			stopping, empty := s.stopping, len(s.subCh) == 0
			if stopping && empty {
				s.loopExited = true
			}
			s.mu.Unlock()
			if stopping {
				if empty {
					return // drained: queue empty, engine idle
				}
				continue // queue refilled before stop; drain it
			}
			// Nothing to simulate: block until work or stop arrives. The
			// admit's journal record is committed by the flush at the top
			// of the next iteration, together with any burst that arrived
			// behind it.
			select {
			case j := <-s.subCh:
				if seq := s.admit(j); seq > pending {
					pending = seq
				}
			case <-s.stopCh:
			}
			continue
		}
		if _, err := s.eng.Step(); err != nil {
			s.fail(err)
			return
		}
		s.publish()
	}
}

// admit injects one queued job into the engine and returns the journal
// sequence of its admitted record (0 when journaling is off or the
// admit failed). The caller batches Commit across a burst of admits.
func (s *Service) admit(j *workload.Job) uint64 {
	arr, err := s.eng.InjectJob(j)
	if err != nil {
		// Submit validated the job and the ID space is service-owned,
		// so injection cannot fail; treat it as loop-fatal if it does.
		s.fail(fmt.Errorf("service: admit job %d: %w", j.ID, err))
		return 0
	}
	s.mu.Lock()
	if info := s.jobs[j.ID]; info != nil {
		info.State = StateAdmitted
		info.Arrival = arr
	}
	s.counts.Admitted++
	s.mAdmitted.Inc() // same critical section as counts: scrapes agree with /v1
	seq, jerr := s.journalLocked(journal.Record{Op: journal.OpAdmitted, ID: j.ID, Arrival: arr})
	s.wakeLocked() // the admit freed a queue slot
	s.mu.Unlock()
	if jerr != nil {
		s.fail(jerr)
		return 0
	}
	return seq
}

// onJobStart runs inside Engine.Step, on the loop goroutine.
func (s *Service) onJobStart(id workload.JobID, slot int64) {
	s.mu.Lock()
	if info := s.jobs[id]; info != nil {
		info.State = StateRunning
		info.FirstStart = slot
	}
	s.mu.Unlock()
}

// onJobComplete runs inside Engine.Step, on the loop goroutine.
func (s *Service) onJobComplete(m sim.JobMetrics) {
	s.mu.Lock()
	if info := s.jobs[m.ID]; info != nil {
		info.State = StateCompleted
		info.Finish = m.Finish
		info.Flowtime = m.Flowtime
		s.tasksOut -= int64(info.Tasks)
	}
	s.counts.Completed++
	s.mCompleted.Inc()
	s.mJCT.Observe(float64(m.Flowtime))
	// The completed record rides the next fsync: losing it to a crash
	// re-runs the job after replay (at-least-once), it never loses one.
	_, jerr := s.journalLocked(journal.Record{Op: journal.OpCompleted, ID: m.ID, Finish: m.Finish, Flowtime: m.Flowtime})
	s.mu.Unlock()
	if jerr != nil {
		s.fail(jerr)
	}
}

// publish refreshes the shared snapshot and gauges from engine state.
// Runs on the loop goroutine, which is the only reader of the cluster.
func (s *Service) publish() {
	clock := s.eng.Clock()
	used, total := s.cfg.Cluster.TotalUsed(), s.cfg.Cluster.Total()
	snap := ClusterSnapshot{
		Scheduler:      s.cfg.Scheduler.Name(),
		Shards:         1,
		Clock:          clock,
		ActiveJobs:     s.eng.ActiveJobs(),
		PendingArrival: s.eng.PendingArrivals(),
		Servers:        serverInfos(s.cfg.Cluster),
	}
	if total.CPUMilli > 0 {
		snap.UtilizationCPU = float64(used.CPUMilli) / float64(total.CPUMilli)
	}
	if total.MemMiB > 0 {
		snap.UtilizationMem = float64(used.MemMiB) / float64(total.MemMiB)
	}
	s.mu.Lock()
	if clock < s.clock {
		s.mu.Unlock()
		s.fail(fmt.Errorf("service: virtual clock moved backwards: %d -> %d", s.clock, clock))
		return
	}
	s.clock = clock
	s.snap = snap
	s.mu.Unlock()

	s.mClock.Set(float64(clock))
	s.mActive.Set(float64(snap.ActiveJobs))
	s.mQueue.Set(float64(len(s.subCh)))
	s.mUtilCPU.Set(snap.UtilizationCPU)
	s.mUtilMem.Set(snap.UtilizationMem)
}

func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.stopping = true
	// Wake blocked Submit waiters so they observe stopping and return
	// ErrStopped instead of waiting on a loop that is gone.
	s.wakeLocked()
	s.mu.Unlock()
}

func serverInfos(c *cluster.Cluster) []ServerInfo {
	out := make([]ServerInfo, 0, c.Len())
	for _, srv := range c.Servers() {
		used := srv.Used()
		out = append(out, ServerInfo{
			ID: int(srv.ID), Name: srv.Name, Rack: srv.Rack, Speed: srv.Speed,
			CPUMilli: srv.Capacity.CPUMilli, MemMiB: srv.Capacity.MemMiB,
			UsedCPU: used.CPUMilli, UsedMem: used.MemMiB,
			Failed: srv.Failed(),
		})
	}
	return out
}
