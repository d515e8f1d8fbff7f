package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// newShardService builds a stopped service carved into a residue class,
// the way the shard router configures its partitions.
func newShardService(t *testing.T, queueCap, base, stride int) *Service {
	t.Helper()
	s, err := New(Config{
		Cluster:       cluster.Uniform(4, resources.Cores(8, 16)),
		Scheduler:     fifo{},
		Seed:          1,
		Deterministic: true,
		QueueCap:      queueCap,
		IDBase:        workload.JobID(base),
		IDStride:      stride,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStealQueuedExtractsAndAccounts: stolen jobs leave the queue, the
// lifecycle map, and the load accounting in one atomic step.
func TestStealQueuedExtractsAndAccounts(t *testing.T) {
	s := newTestService(t, 8) // not started: jobs stay queued
	var ids []workload.JobID
	for i := 0; i < 5; i++ {
		id, err := s.SubmitNowait(testJob(2, 3))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	jobs := s.StealQueued(3)
	if len(jobs) != 3 {
		t.Fatalf("stole %d jobs, want 3", len(jobs))
	}
	// FIFO: the oldest queued jobs move, keeping their IDs.
	for i, j := range jobs {
		if j.ID != ids[i] {
			t.Errorf("stolen job %d has ID %d, want %d", i, j.ID, ids[i])
		}
		if _, ok := s.Job(j.ID); ok {
			t.Errorf("stolen job %d still visible on the victim", j.ID)
		}
	}
	l := s.Load()
	if l.QueueDepth != 2 || l.Jobs != 2 || l.Tasks != 4 {
		t.Fatalf("victim load after steal: %+v, want {2 2 4}", l)
	}
	if c := s.Counts(); c.Submitted != 2 {
		t.Fatalf("victim Submitted %d after steal, want 2", c.Submitted)
	}
	// Over-asking returns what's there; an empty queue returns nil.
	if rest := s.StealQueued(10); len(rest) != 2 {
		t.Fatalf("second steal got %d, want 2", len(rest))
	}
	if extra := s.StealQueued(1); extra != nil {
		t.Fatalf("steal from empty queue returned %v", extra)
	}
	s.Start()
	stopDrained(t, s)
	if c := s.Counts(); c.Submitted != 0 || c.Completed != 0 {
		t.Fatalf("fully-robbed service drained with %+v", c)
	}
}

// TestStealQueuedWakesBlockedSubmit: a steal frees queue space and must
// broadcast it exactly like an admission, or waiters sleep through it.
func TestStealQueuedWakesBlockedSubmit(t *testing.T) {
	s := newTestService(t, 1)
	if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := s.Submit(ctx, testJob(1, 2))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	if got := s.StealQueued(1); len(got) != 1 {
		t.Fatalf("steal got %d jobs", len(got))
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter not woken by steal: %v", err)
	}
	s.Start()
	stopDrained(t, s)
}

// TestInjectQueuedMigratesLifecycle: the full donation round trip —
// steal from a victim shard, inject into a thief in a different residue
// class — keeps IDs, runs the jobs to completion on the thief, and
// keeps the deployment-wide accounting invariant.
func TestInjectQueuedMigratesLifecycle(t *testing.T) {
	victim := newShardService(t, 8, 1, 2) // IDs 1,3,5,...
	thief := newShardService(t, 8, 2, 2)  // IDs 2,4,6,...
	for i := 0; i < 4; i++ {
		if _, err := victim.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	jobs := victim.StealQueued(3)
	if n := thief.InjectQueued(jobs); n != 3 {
		t.Fatalf("thief accepted %d of 3", n)
	}
	for _, j := range jobs {
		info, ok := thief.Job(j.ID)
		if !ok || info.State != StateQueued {
			t.Fatalf("migrated job %d on thief: ok=%v info=%+v", j.ID, ok, info)
		}
	}
	if c := thief.Counts(); c.Submitted != 3 {
		t.Fatalf("thief Submitted %d, want 3", c.Submitted)
	}
	victim.Start()
	thief.Start()
	stopDrained(t, victim)
	stopDrained(t, thief)
	vc, tc := victim.Counts(), thief.Counts()
	if vc.Submitted+tc.Submitted != 4 || vc.Completed+tc.Completed != 4 {
		t.Fatalf("accounting drifted: victim %+v thief %+v", vc, tc)
	}
	for _, j := range jobs {
		info, ok := thief.Job(j.ID)
		if !ok || info.State != StateCompleted || info.Flowtime < 0 {
			t.Fatalf("migrated job %d after drain: ok=%v info=%+v", j.ID, ok, info)
		}
	}
}

// TestInjectQueuedStopsAtCapacity: a full thief accepts a prefix and
// reports how far it got; the rest stay with the caller.
func TestInjectQueuedStopsAtCapacity(t *testing.T) {
	victim := newShardService(t, 8, 1, 2)
	thief := newShardService(t, 2, 2, 2)
	for i := 0; i < 5; i++ {
		if _, err := victim.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	jobs := victim.StealQueued(5)
	if n := thief.InjectQueued(jobs); n != 2 {
		t.Fatalf("thief with capacity 2 accepted %d", n)
	}
	if _, ok := thief.Job(jobs[2].ID); ok {
		t.Fatal("rejected job registered on the thief")
	}
	// The caller re-homes the rest; the victim takes its own back.
	if n := victim.InjectQueued(jobs[2:]); n != 3 {
		t.Fatalf("victim re-accepted %d of 3", n)
	}
	victim.Start()
	thief.Start()
	stopDrained(t, victim)
	stopDrained(t, thief)
	if vc, tc := victim.Counts(), thief.Counts(); vc.Completed+tc.Completed != 5 {
		t.Fatalf("jobs lost in partial migration: victim %+v thief %+v", vc, tc)
	}
}

// TestDonationRefusedWhileDraining: a draining service neither donates
// nor accepts — its loop is committed to exactly the queue it has.
func TestDonationRefusedWhileDraining(t *testing.T) {
	s := newTestService(t, 4)
	if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	stopDrained(t, s)
	if got := s.StealQueued(1); got != nil {
		t.Fatalf("drained service donated %d jobs", len(got))
	}
	orphan := testJob(1, 2)
	orphan.ID = 99
	if n := s.InjectQueued([]*workload.Job{orphan}); n != 0 {
		t.Fatal("drained service accepted a migrated job")
	}
}

// TestForceRequeueFailsLoudlyAfterExit: the last-resort requeue on a
// service whose loop has already exited must surface an error, never
// silently strand accepted work.
func TestForceRequeueFailsLoudlyAfterExit(t *testing.T) {
	s := newTestService(t, 4)
	s.Start()
	stopDrained(t, s)
	orphan := testJob(1, 2)
	orphan.ID = 99
	s.ForceRequeue([]*workload.Job{orphan})
	if err := s.Err(); err == nil {
		t.Fatal("requeue after loop exit reported no error")
	}
	if _, ok := s.Job(99); ok {
		t.Fatal("stranded job left registered")
	}
}

// TestForceRequeueIntoReserve: the race a migration loses when every
// queue refills between its steal and its give-back. Submitters retake
// the space the steal freed, so InjectQueued refuses the stolen jobs;
// ForceRequeue must still put them back (into the reserve above
// QueueCap) without failing the service, fresh submissions must still
// see a full queue, and every job must complete. A steal hands out at
// most QueueCap jobs, so even the largest one fits back.
func TestForceRequeueIntoReserve(t *testing.T) {
	const queueCap = 4
	s := newTestService(t, queueCap) // not started: jobs stay queued
	fill := func() {
		t.Helper()
		for s.Load().QueueDepth < queueCap {
			if _, err := s.SubmitNowait(testJob(1, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	stolen := s.StealQueued(2)
	fill()
	if n := s.InjectQueued(stolen); n != 0 {
		t.Fatalf("full victim accepted %d stolen jobs", n)
	}
	s.ForceRequeue(stolen)
	if err := s.Err(); err != nil {
		t.Fatalf("requeue into the reserve failed the service: %v", err)
	}
	if d := s.Load().QueueDepth; d != queueCap+2 {
		t.Fatalf("queue depth %d after requeue, want %d", d, queueCap+2)
	}
	for _, j := range stolen {
		if _, ok := s.Job(j.ID); !ok {
			t.Fatalf("requeued job %d not registered", j.ID)
		}
	}
	if _, err := s.SubmitNowait(testJob(1, 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission into the reserve: %v, want ErrQueueFull", err)
	}
	more := s.StealQueued(100)
	if len(more) != queueCap {
		t.Fatalf("stole %d jobs, want at most QueueCap = %d", len(more), queueCap)
	}
	s.ForceRequeue(more)
	if err := s.Err(); err != nil {
		t.Fatalf("requeue of a QueueCap-sized steal failed the service: %v", err)
	}
	s.Start()
	stopDrained(t, s)
	if c := s.Counts(); c.Completed != c.Submitted || c.Submitted != queueCap+2 {
		t.Fatalf("requeued jobs stranded: %+v", c)
	}
}
