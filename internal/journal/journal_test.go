package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

func testJob(id workload.JobID) *workload.Job {
	return &workload.Job{
		ID: id, Name: "j", App: "test",
		Phases: []workload.Phase{{
			Name: "p", Tasks: 2, Demand: resources.Cores(1, 1),
			MeanDuration: 3,
		}},
	}
}

func openT(t *testing.T, path string) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, rep
}

func appendT(t *testing.T, j *Journal, rec Record) uint64 {
	t.Helper()
	seq, err := j.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestJournalRoundTrip: records written and committed come back on
// replay with the right per-job outcomes.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, rep := openT(t, path)
	if rep.Records != 0 || len(rep.Jobs) != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	appendT(t, j, Record{Op: OpAdmitted, ID: 1, Arrival: 4})
	appendT(t, j, Record{Op: OpCompleted, ID: 1, Finish: 9, Flowtime: 5})
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	seq := appendT(t, j, Record{Op: OpAdmitted, ID: 2, Arrival: 9})
	if err := j.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rep := openT(t, path)
	defer j2.Close()
	if rep.Records != 5 || rep.Truncated != 0 {
		t.Fatalf("replay: %d records, %d truncated", rep.Records, rep.Truncated)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rep.Jobs))
	}
	j1, jb2 := rep.Jobs[0], rep.Jobs[1]
	if j1.ID != 1 || j1.Outcome != OutcomeCompleted || j1.Finish != 9 || j1.Flowtime != 5 {
		t.Fatalf("job 1: %+v", j1)
	}
	if jb2.ID != 2 || jb2.Outcome != OutcomePending || !jb2.Admitted || jb2.Job == nil {
		t.Fatalf("job 2: %+v", jb2)
	}
	if jb2.Job.TotalTasks() != 2 {
		t.Fatalf("job 2 spec lost: %+v", jb2.Job)
	}
}

// TestJournalTornTail: a crash anywhere in the file (the tail sliced at
// every byte offset, the 12-byte header included) must replay every
// intact record, drop the torn bytes with a warning count, and leave the
// file appendable. A cut inside the header replays as empty and is
// truncated to zero, so the next append rewrites the header.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	j, _ := openT(t, full)
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	cut := size(t, full) // end of record 1
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for at := int64(1); at < int64(len(whole)); at++ {
		// good is the last intact boundary at or before the cut: nothing
		// inside the header, the bare header inside record 1, and the end
		// of record 1 from there on.
		good, records := int64(0), int64(0)
		switch {
		case at >= cut:
			good, records = cut, 1
		case at >= int64(headerLen):
			good = int64(headerLen)
		}
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, whole[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep := openT(t, path)
		if rep.Records != records || rep.Truncated != at-good {
			t.Fatalf("cut at %d: %d records, %d truncated (want %d, %d)", at, rep.Records, rep.Truncated, records, at-good)
		}
		if records == 0 && len(rep.Jobs) != 0 {
			t.Fatalf("cut at %d: jobs %+v from no intact record", at, rep.Jobs)
		}
		if records == 1 && (len(rep.Jobs) != 1 || rep.Jobs[0].ID != 1 || rep.Jobs[0].Outcome != OutcomePending) {
			t.Fatalf("cut at %d: jobs %+v", at, rep.Jobs)
		}
		if got := size(t, path); got != good {
			t.Fatalf("cut at %d: torn tail not truncated: size %d, want %d", at, got, good)
		}
		// Read-only replays see the same state and leave the file alone.
		if err := os.WriteFile(filepath.Join(dir, "ro.wal"), whole[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		for name, replay := range map[string]func(string) (*Replay, error){"ReplayFile": ReplayFile, "AdoptSegment": AdoptSegment} {
			ro, err := replay(filepath.Join(dir, "ro.wal"))
			if err != nil || ro.Records != records || ro.Truncated != at-good {
				t.Fatalf("cut at %d: %s = %+v, %v (want %d records, %d truncated)", at, name, ro, err, records, at-good)
			}
		}
		// The truncated journal must accept and replay new appends.
		seq := appendT(t, j2, Record{Op: OpCompleted, ID: 1, Finish: 3, Flowtime: 3})
		if err := j2.Commit(seq); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		j3, rep2 := openT(t, path)
		if rep2.Records != records+1 || rep2.Truncated != 0 || rep2.Jobs[0].Outcome != OutcomeCompleted {
			t.Fatalf("cut at %d: after repair+append: %+v", at, rep2)
		}
		// Release the lease: the next iteration rewrites this inode, and
		// a leaked descriptor would refuse the reopen as a live writer.
		j3.Close()
	}
}

// TestJournalCorruptPayload: a flipped byte mid-file fails the CRC and
// everything from that record on is treated as the tail.
func TestJournalCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	appendT(t, j, Record{Op: OpSubmitted, ID: 1, Job: testJob(1)})
	first := int64(0)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	first = size(t, path)
	appendT(t, j, Record{Op: OpSubmitted, ID: 2, Job: testJob(2)})
	appendT(t, j, Record{Op: OpSubmitted, ID: 3, Job: testJob(3)})
	j.Close()

	raw, _ := os.ReadFile(path)
	raw[first+12] ^= 0xff // inside record 2's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rep := openT(t, path)
	defer j2.Close()
	if rep.Records != 1 || len(rep.Jobs) != 1 || rep.Jobs[0].ID != 1 {
		t.Fatalf("corrupt mid-file: %+v", rep)
	}
	if rep.Truncated == 0 {
		t.Fatal("corruption not reported as truncation")
	}
}

// TestJournalBadHeader: wrong magic or a future version is a hard
// error — that is not a torn file, it is the wrong file. A file shorter
// than the header is only a torn header if its bytes are a prefix of a
// valid one.
func TestJournalBadHeader(t *testing.T) {
	dir := t.TempDir()
	hdr := make([]byte, 12)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion+1)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", []byte("definitely not a journal"), errBadMagic},
		{"short bad magic", []byte("dolly!"), errBadMagic},
		{"future version", hdr, errBadVersion},
		{"short future version", hdr[:9], errBadVersion},
	} {
		path := filepath.Join(dir, "bad.wal")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path); !errors.Is(err, tc.want) {
			t.Fatalf("%s: Open error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestMergeMigrationCrashPoints: every crash point around a cross-shard
// migration replays the job exactly once, never zero, never twice.
func TestMergeMigrationCrashPoints(t *testing.T) {
	sub := func(id workload.JobID) *Replay {
		r := &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomePending, Job: testJob(id)}}}
		return r
	}
	stolen := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomeStolen, Job: testJob(id)}}}
	}
	inj := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomePending, Job: testJob(id)}}}
	}
	done := func(id workload.JobID) *Replay {
		return &Replay{Jobs: []*ReplayJob{{ID: id, Outcome: OutcomeCompleted, Finish: 7, Flowtime: 7}}}
	}

	cases := []struct {
		name string
		reps []*Replay
		want JobOutcome
	}{
		{"stolen durable, injected lost", []*Replay{stolen(5), {}}, OutcomePending},
		{"stolen lost, injected durable", []*Replay{sub(5), inj(5)}, OutcomePending},
		{"both durable", []*Replay{stolen(5), inj(5)}, OutcomePending},
		{"completed on thief", []*Replay{stolen(5), done(5)}, OutcomeCompleted},
		{"completed beats pending", []*Replay{sub(5), done(5)}, OutcomeCompleted},
	}
	for _, tc := range cases {
		got := Merge(tc.reps...)
		if len(got) != 1 {
			t.Fatalf("%s: %d jobs, want exactly 1", tc.name, len(got))
		}
		if got[0].Outcome != tc.want {
			t.Fatalf("%s: outcome %v, want %v", tc.name, got[0].Outcome, tc.want)
		}
		if tc.want == OutcomePending && got[0].Job == nil {
			t.Fatalf("%s: pending job lost its spec", tc.name)
		}
	}
}

// TestJournalConcurrentCommit: many goroutines appending and committing
// share fsyncs; everything must be durable and replayable afterwards.
func TestJournalConcurrentCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _ := openT(t, path)
	const n = 64
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := workload.JobID(g + 1)
			seq, err := j.Append(Record{Op: OpSubmitted, ID: id, Job: testJob(id)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.Commit(seq); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openT(t, path)
	if rep.Records != n || len(rep.Jobs) != n {
		t.Fatalf("replayed %d records / %d jobs, want %d", rep.Records, len(rep.Jobs), n)
	}
}

// TestListSegments: only *.wal files, sorted; a missing dir is empty.
func TestListSegments(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"shard-001.wal", "shard-000.wal", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || filepath.Base(got[0]) != "shard-000.wal" || filepath.Base(got[1]) != "shard-001.wal" {
		t.Fatalf("segments: %v", got)
	}
	if got, err := ListSegments(filepath.Join(dir, "nope")); err != nil || len(got) != 0 {
		t.Fatalf("missing dir: %v, %v", got, err)
	}
}

func size(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
