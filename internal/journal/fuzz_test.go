package journal

// Fuzzing for segment replay: whatever bytes a crash, a full disk or a
// foreign file leave behind, Open must either refuse the file with a
// typed header or record error, or replay its intact prefix, truncate
// the rest, and leave a segment that reopens clean and takes appends.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedSegment writes a small valid multi-record segment.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.wal")
	j, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: OpSubmitted, ID: 1, Job: testJob(1)},
		{Op: OpAdmitted, ID: 1, Arrival: 2},
		{Op: OpSubmitted, ID: 2, Job: testJob(2)},
		{Op: OpCompleted, ID: 1, Finish: 5, Flowtime: 3},
	} {
		if _, err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalOpen opens arbitrary bytes as a segment. Open must never
// panic; an error must be a bad header or a refused record; a replay
// must truncate exactly its reported torn bytes, reopen with nothing
// left to truncate and the same records, and accept one more record.
func FuzzJournalOpen(f *testing.F) {
	valid := fuzzSeedSegment(f)
	for at := 0; at <= len(valid); at++ {
		// Every cut through the header and the first frame header, then
		// a stride through the payloads.
		if at <= headerLen+8 || at%17 == 0 || at == len(valid) {
			f.Add(valid[:at])
		}
	}
	f.Add([]byte("dolly!"))
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+10] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "seg.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path)
		if err != nil {
			if !errors.Is(err, errBadMagic) && !errors.Is(err, errBadVersion) && !errors.Is(err, errBadRecord) {
				t.Fatalf("untyped Open error: %v", err)
			}
			return
		}
		if rep.Records < 0 || rep.Truncated < 0 || rep.Truncated > int64(len(data)) {
			t.Fatalf("replay %+v of %d bytes", rep, len(data))
		}
		if got, want := size(t, path), int64(len(data))-rep.Truncated; got != want {
			t.Fatalf("size after Open %d, want %d (%d bytes, %d truncated)", got, want, len(data), rep.Truncated)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, rep2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		if rep2.Truncated != 0 || rep2.Records != rep.Records {
			t.Fatalf("reopen: %d records, %d truncated (want %d, 0)", rep2.Records, rep2.Truncated, rep.Records)
		}
		seq, err := j.Append(Record{Op: OpCompleted, ID: 1 << 40, Finish: 1, Flowtime: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(seq); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, rep3, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j.Close()
		if rep3.Truncated != 0 || rep3.Records != rep.Records+1 {
			t.Fatalf("after append: %d records, %d truncated (want %d, 0)", rep3.Records, rep3.Truncated, rep.Records+1)
		}
	})
}
