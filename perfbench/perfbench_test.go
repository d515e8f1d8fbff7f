package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// small workloads keep the tests fast while exercising both job sources.
var (
	smallGoogle = engineWorkload{name: "google-test", jobs: 1500, fleet: 40, jobsPerSlot: 3, streamed: true}
	smallSynth  = engineWorkload{name: "synth-test", jobs: 3000, fleet: 100, jobsPerSlot: 25}
)

func TestTracedSchedulerReproducesUntracedReplay(t *testing.T) {
	for _, w := range []engineWorkload{smallGoogle, smallSynth} {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := w.setup(7, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			r, err = w.setup(7, dir, tr)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := traced.signature(), plain.signature(); got != want {
				t.Fatalf("traced replay %+v, untraced %+v", got, want)
			}
			if got, want := traced.res.MeanFlowtime(), plain.res.MeanFlowtime(); got != want {
				t.Fatalf("traced mean JCT %v, untraced %v", got, want)
			}
			if r.sched.calls != traced.res.SchedCalls {
				t.Fatalf("wrapper saw %d Schedule calls, engine made %d", r.sched.calls, traced.res.SchedCalls)
			}
			lt := tr.times()
			if lt.count[spanStep] != int64(traced.steps) || lt.count[spanSchedule] != int64(r.sched.calls) {
				t.Fatalf("span counts %v do not match %d steps, %d calls", lt.count, traced.steps, r.sched.calls)
			}
			if lt.self[spanStep] >= lt.total[spanStep] {
				t.Fatalf("Step self time %d not below its total %d", lt.self[spanStep], lt.total[spanStep])
			}
			// A streamed replay decodes every job plus the final io.EOF.
			wantDecodes := int64(0)
			if w.streamed {
				wantDecodes = int64(w.jobs) + 1
			}
			if lt.count[spanDecode] != wantDecodes {
				t.Fatalf("%d decode spans for %d jobs, want %d", lt.count[spanDecode], w.jobs, wantDecodes)
			}
		})
	}
}

func TestReplayLatenciesCoverEveryJob(t *testing.T) {
	for _, w := range []engineWorkload{smallGoogle, smallSynth} {
		r, err := w.setup(5, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		if out.ack.n != w.jobs || out.status.n != w.jobs {
			t.Fatalf("%s: %d ack and %d status samples for %d jobs", w.name, out.ack.n, out.status.n, w.jobs)
		}
		// A job completes no earlier than it is admitted, and both
		// happen within the replay.
		wall := float64(out.wall)
		if !(0 < out.ack.p50 && out.ack.p50 <= out.status.p50 && out.status.p90 <= wall) {
			t.Fatalf("%s: ack %+v, status %+v, wall %v", w.name, out.ack, out.status, out.wall)
		}
	}
}

func TestCertifyPrefix(t *testing.T) {
	for _, w := range []engineWorkload{smallGoogle, smallSynth} {
		if err := w.certifyPrefix(3); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
}

func TestGenerationIsDeterministicPerSeed(t *testing.T) {
	for _, w := range []engineWorkload{smallGoogle, smallSynth} {
		a, err := w.jobList(w.jobs, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.jobList(w.jobs, 11)
		c, _ := w.jobList(w.jobs, 12)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed generated different jobs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds generated the same jobs", w.name)
		}
		for i, j := range a {
			if want := int64(i / w.jobsPerSlot); j.Arrival != want {
				t.Fatalf("%s: job %d arrives at slot %d, want %d", w.name, i, j.Arrival, want)
			}
		}
	}

	dir := t.TempDir()
	var files [2][]byte
	for k := range files {
		path := filepath.Join(dir, "t.trace")
		if _, err := smallGoogle.writeTrace(path, 11); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[k], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("same seed wrote different trace files")
	}

	jobs := e2eHTTP.e2eJobs(100, 5)
	if !reflect.DeepEqual(jobs, e2eHTTP.e2eJobs(100, 5)) {
		t.Fatal("e2e jobs differ for one seed")
	}
	for i, j := range jobs {
		if (j == nil) != e2eHTTP.isRead(i) {
			t.Fatalf("request %d: job %v, read %v", i, j, e2eHTTP.isRead(i))
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n   int
		pct float64
		ok  bool
	}{
		{10000, 99.9, true}, // 10 beyond p99.9
		{9999, 99, true},    // 9 beyond p99.9
		{1000, 99, true},
		{999, 90, true}, // 9 beyond p99
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v, ok := tailPercentile(xs)
		if pct != c.pct || ok != c.ok {
			t.Errorf("n=%d: p%v ok=%v, want p%v ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("n=%d: p%v = %v leaves %d samples beyond", c.n, pct, v, c.n-int(v))
		}
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestE2EStackAccounting(t *testing.T) {
	w := e2eHTTP
	w.submitRate = 400
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	tr := newTracer()
	dir := filepath.Join(t.TempDir(), "journal")
	s, err := w.startStack(ctx, 1, dir, tr)
	if err != nil {
		t.Fatal(err)
	}
	jobs := w.e2eJobs(200, 1)
	out, err := w.runLoad(ctx, s, jobs, 1, 500*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.submits+out.reads != len(jobs) || out.failedSubmits+out.failedReads != 0 {
		t.Fatalf("%d submits, %d reads, %d+%d failed for %d requests",
			out.submits, out.reads, out.failedSubmits, out.failedReads, len(jobs))
	}
	if out.completed != int64(out.submits) {
		t.Fatalf("completed %d of %d submitted jobs", out.completed, out.submits)
	}
	if out.journalRecords != 3*out.completed {
		t.Fatalf("journal holds %d records for %d jobs, want 3 per job", out.journalRecords, out.completed)
	}
	lt := tr.times()
	if lt.count[spanShardSubmit] != int64(out.submits) || lt.count[spanClientSubmit] != int64(out.submits) {
		t.Fatalf("submit spans: shard %d, client %d, want %d",
			lt.count[spanShardSubmit], lt.count[spanClientSubmit], out.submits)
	}
	if lt.count[spanShardJob] != int64(out.reads) {
		t.Fatalf("%d shard read spans for %d reads", lt.count[spanShardJob], out.reads)
	}
}

// TestMetricTablesMatchBenchmarkJSON holds the metric tables to the
// benchmark definition at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{google200.name, synth2k.name, "e2e-http"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the table",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
