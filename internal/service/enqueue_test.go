package service

import (
	"path/filepath"
	"testing"

	"dollymp/internal/journal"
	"dollymp/internal/workload"
)

func tenantJob(id workload.JobID) *workload.Job {
	j := testJob(2, 3)
	j.ID = id
	j.Tenant = "team-a"
	return j
}

// TestEnqueueKeepsTenant: whichever entry point a job comes in by, its
// lifecycle record carries the tenant label, so Job and ?tenant= find
// it after a steal→inject, a restart or an adoption just as after a
// fresh submission.
func TestEnqueueKeepsTenant(t *testing.T) {
	const id = 7
	cases := []struct {
		name  string
		enter func(t *testing.T, s *Service) workload.JobID
	}{
		{"submit", func(t *testing.T, s *Service) workload.JobID {
			got, err := s.SubmitNowait(tenantJob(0))
			if err != nil {
				t.Fatal(err)
			}
			return got
		}},
		{"InjectQueued", func(t *testing.T, s *Service) workload.JobID {
			if n := s.InjectQueued([]*workload.Job{tenantJob(id)}); n != 1 {
				t.Fatalf("accepted %d of 1", n)
			}
			return id
		}},
		{"ForceRequeue", func(t *testing.T, s *Service) workload.JobID {
			s.ForceRequeue([]*workload.Job{tenantJob(id)})
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"Restore/pending", func(t *testing.T, s *Service) workload.JobID {
			rj := &journal.ReplayJob{ID: id, Outcome: journal.OutcomePending, Job: tenantJob(0)}
			if err := s.Restore([]*journal.ReplayJob{rj}, 1, 0); err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"Restore/completed", func(t *testing.T, s *Service) workload.JobID {
			rj := &journal.ReplayJob{ID: id, Outcome: journal.OutcomeCompleted, Job: tenantJob(0), Finish: 9, Flowtime: 4}
			if err := s.Restore([]*journal.ReplayJob{rj}, 2, 0); err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"Absorb/pending", func(t *testing.T, s *Service) workload.JobID {
			rj := &journal.ReplayJob{ID: id, Outcome: journal.OutcomePending, Job: tenantJob(0)}
			if n, err := s.Absorb([]*journal.ReplayJob{rj}); n != 1 || err != nil {
				t.Fatalf("absorbed %d, err %v", n, err)
			}
			return id
		}},
		{"Absorb/completed", func(t *testing.T, s *Service) workload.JobID {
			rj := &journal.ReplayJob{ID: id, Outcome: journal.OutcomeCompleted, Job: tenantJob(0), Finish: 9, Flowtime: 4}
			if n, err := s.Absorb([]*journal.ReplayJob{rj}); n != 1 || err != nil {
				t.Fatalf("absorbed %d, err %v", n, err)
			}
			return id
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, 4) // not started: queued jobs stay queued
			got := tc.enter(t, s)
			info, ok := s.Job(got)
			if !ok || info.Tenant != "team-a" {
				t.Fatalf("Job(%d) = %+v, %v; want tenant team-a", got, info, ok)
			}
			if list := s.Jobs(JobFilter{Tenant: "team-a"}); len(list) != 1 || list[0].ID != got {
				t.Fatalf("Jobs(tenant=team-a) = %+v, want job %d", list, got)
			}
		})
	}
}

// TestInjectQueuedRefusesUnjournaled: a thief whose journal has failed
// must not enqueue a migrated job it could not journal — it accepts
// none, so the router's fallback chain re-homes them all, and the
// failure surfaces as the service's terminal error.
func TestInjectQueuedRefusesUnjournaled(t *testing.T) {
	victim := newShardService(t, 8, 1, 2)
	thief, jnl, _ := openJournalService(t, filepath.Join(t.TempDir(), "thief.wal"), 8)
	for i := 0; i < 3; i++ {
		if _, err := victim.SubmitNowait(testJob(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Crash(); err != nil {
		t.Fatal(err)
	}
	jobs := victim.StealQueued(3)
	if n := thief.InjectQueued(jobs); n != 0 {
		t.Fatalf("thief with a crashed journal accepted %d of %d", n, len(jobs))
	}
	if l := thief.Load(); l.QueueDepth != 0 || l.Jobs != 0 || l.Tasks != 0 {
		t.Fatalf("thief load after refused inject: %+v, want empty", l)
	}
	for _, j := range jobs {
		if _, ok := thief.Job(j.ID); ok {
			t.Fatalf("unjournaled job %d registered on the thief", j.ID)
		}
	}
	if thief.Err() == nil {
		t.Fatal("journal failure not surfaced as the thief's error")
	}
	// The fallback chain hands them back to the victim, which drains them.
	if n := victim.InjectQueued(jobs); n != 3 {
		t.Fatalf("victim re-accepted %d of 3", n)
	}
	victim.Start()
	stopDrained(t, victim)
	if c := victim.Counts(); c.Completed != 3 {
		t.Fatalf("victim counts after re-homing: %+v", c)
	}
}

// TestForceRequeueStrandsUnjournaled: the last-resort requeue treats a
// job it could not journal as stranded — not enqueued, not registered —
// and fails the service.
func TestForceRequeueStrandsUnjournaled(t *testing.T) {
	s, jnl, _ := openJournalService(t, filepath.Join(t.TempDir(), "seg.wal"), 8)
	if err := jnl.Crash(); err != nil {
		t.Fatal(err)
	}
	s.ForceRequeue([]*workload.Job{tenantJob(5)})
	if s.Err() == nil {
		t.Fatal("unjournaled requeue reported no error")
	}
	if l := s.Load(); l.QueueDepth != 0 || l.Jobs != 0 {
		t.Fatalf("load after refused requeue: %+v, want empty", l)
	}
	if _, ok := s.Job(5); ok {
		t.Fatal("stranded job left registered")
	}
}
