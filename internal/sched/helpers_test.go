package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

func testJob() *workload.JobState {
	j := workload.Chain(1, "mr", "t", 0, []workload.Phase{
		{Name: "map", Tasks: 3, Demand: resources.Cores(1, 2), MeanDuration: 5},
		{Name: "reduce", Tasks: 2, Demand: resources.Cores(2, 4), MeanDuration: 4},
	})
	return workload.NewJobState(j)
}

func TestReadyPendingTasks(t *testing.T) {
	js := testJob()
	tasks := ReadyPendingTasks(js)
	if len(tasks) != 3 {
		t.Fatalf("only map tasks should be ready: %v", tasks)
	}
	for i, pt := range tasks {
		if pt.Ref.Phase != 0 || pt.Ref.Index != i || pt.Demand != resources.Cores(1, 2) {
			t.Fatalf("task %d: %+v", i, pt)
		}
	}
	// Finish map; reduce becomes ready.
	for l := 0; l < 3; l++ {
		if err := js.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	tasks = ReadyPendingTasks(js)
	if len(tasks) != 2 || tasks[0].Ref.Phase != 1 {
		t.Fatalf("reduce tasks: %v", tasks)
	}
}

func TestFirstReadyPendingTask(t *testing.T) {
	js := testJob()
	pt, ok := FirstReadyPendingTask(js)
	if !ok || pt.Ref.Phase != 0 || pt.Ref.Index != 0 {
		t.Fatalf("first: %+v ok=%v", pt, ok)
	}
	js.MarkRunning(0, 0)
	pt, ok = FirstReadyPendingTask(js)
	if !ok || pt.Ref.Index != 1 {
		t.Fatalf("after running: %+v", pt)
	}
	for l := 0; l < 3; l++ {
		if err := js.MarkDone(0, l); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < 2; l++ {
		if err := js.MarkDone(1, l); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := FirstReadyPendingTask(js); ok {
		t.Fatal("done job should have no pending task")
	}
}

func twoServers(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New([]cluster.Spec{
		{Name: "small", Capacity: resources.Cores(2, 4), Speed: 1},
		{Name: "big", Capacity: resources.Cores(16, 32), Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFitTracker(t *testing.T) {
	c := twoServers(t)
	ft := NewFitTracker(c)
	if got := ft.Free(0); got != resources.Cores(2, 4) {
		t.Fatalf("free: %v", got)
	}
	if !ft.Place(0, resources.Cores(2, 4)) {
		t.Fatal("place should succeed")
	}
	if ft.Place(0, resources.Cores(1, 1)) {
		t.Fatal("server 0 is tentatively full")
	}
	if got := ft.Free(0); !got.IsZero() {
		t.Fatalf("free after fill: %v", got)
	}
	// The underlying cluster is untouched.
	if got := c.Server(0).Free(); got != resources.Cores(2, 4) {
		t.Fatalf("cluster mutated: %v", got)
	}
	// TotalFree accounts for tentative placements.
	want := c.TotalFree().Sub(resources.Cores(2, 4))
	if got := ft.TotalFree(); got != want {
		t.Fatalf("total free: %v want %v", got, want)
	}
	// BestFit now only finds server 1.
	id, ok := ft.BestFit(resources.Cores(1, 1))
	if !ok || id != 1 {
		t.Fatalf("best fit after fill: %d", id)
	}
	if _, ok := ft.BestFit(resources.Cores(64, 64)); ok {
		t.Fatal("oversize should not fit")
	}
}

// scanBestFit is the reference best fit: one ascending scan of the
// fleet, strict > from −1, exactly the rule FitTracker.BestFit answers
// from its block cache.
func scanBestFit(ids []cluster.ServerID, free []resources.Vector, total, demand resources.Vector) (cluster.ServerID, bool) {
	best := -1
	bestScore := -1.0
	for i, f := range free {
		if !demand.Fits(f) {
			continue
		}
		if score := demand.Dot(f, total); score > bestScore {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return ids[best], true
}

// TestFitTrackerBestFitOracle drives FitTracker through random
// sequences of Place, BestFit and Reset and checks every BestFit
// against scanBestFit over a mirror of the tentative free vectors.
// Fleet sizes cover one-server blocks (1, 2, 3), perfect squares (16)
// and partial last blocks (17, 200, 2000); the sparse fleet keeps
// non-dense IDs. Capacities come from three shapes, so many servers
// tie and a flipped tie-break shows; arbitrary Places into blocks the
// cache has already answered for show a missed invalidation.
func TestFitTrackerBestFitOracle(t *testing.T) {
	caps := []resources.Vector{resources.Cores(4, 8), resources.Cores(8, 16), resources.Cores(4, 16)}
	shapes := []resources.Vector{
		resources.Cores(1, 1), resources.Cores(1, 2), resources.Cores(2, 4),
		resources.Cores(4, 8), resources.Cores(3, 12), resources.Cores(8, 16),
		resources.Vec(0, 0), resources.Cores(9, 1), resources.Cores(1, 17),
	}
	fleet := func(n int, sparse bool) *cluster.Cluster {
		specs := make([]cluster.Spec, n)
		ids := make([]cluster.ServerID, n)
		for i := range specs {
			specs[i] = cluster.Spec{Name: fmt.Sprintf("s%d", i), Capacity: caps[(i/3)%len(caps)], Speed: 1}
			ids[i] = cluster.ServerID(i)
			if sparse {
				ids[i] = cluster.ServerID(7 + 5*i)
			}
		}
		c, err := cluster.NewWithIDs(specs, ids)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		n      int
		sparse bool
	}{{1, false}, {2, false}, {3, false}, {16, false}, {17, false}, {200, false}, {2000, false}, {23, true}}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d/sparse=%v", tc.n, tc.sparse), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n)))
			c := fleet(tc.n, tc.sparse)
			var ids []cluster.ServerID
			for _, s := range c.Servers() {
				ids = append(ids, s.ID)
			}
			ft := NewFitTracker(c)
			var free []resources.Vector
			snapshot := func() {
				free = free[:0]
				for _, s := range c.Servers() {
					free = append(free, s.Free())
				}
			}
			snapshot()
			for op := 0; op < 4000; op++ {
				d := shapes[rng.Intn(len(shapes))]
				switch r := rng.Intn(20); {
				case r == 0:
					// Move the live cluster under the tracker, then
					// re-snapshot: stale caches must not survive.
					id := ids[rng.Intn(len(ids))]
					if d.Fits(c.Server(id).Free()) {
						if err := c.Allocate(id, d); err != nil {
							t.Fatal(err)
						}
					}
					ft.Reset(c)
					snapshot()
				case r < 6:
					i := rng.Intn(len(ids))
					want := d.Fits(free[i])
					if got := ft.Place(ids[i], d); got != want {
						t.Fatalf("op %d: Place(%d, %v) = %v, want %v", op, ids[i], d, got, want)
					}
					if want {
						free[i] = free[i].Sub(d)
					}
				default:
					id, ok := ft.BestFit(d)
					wantID, wantOK := scanBestFit(ids, free, c.Total(), d)
					if id != wantID || ok != wantOK {
						t.Fatalf("op %d: BestFit(%v) = %d,%v, scan says %d,%v", op, d, id, ok, wantID, wantOK)
					}
					if ok && rng.Intn(2) == 0 {
						ft.Place(id, d)
						i := slices.Index(ids, id)
						free[i] = free[i].Sub(d)
					}
				}
			}
		})
	}
}

func TestWorstFit(t *testing.T) {
	c := twoServers(t)
	ft := NewFitTracker(c)
	id, ok := ft.WorstFit(resources.Cores(1, 1))
	if !ok || id != 1 {
		t.Fatalf("worst fit should pick the emptiest server: %d", id)
	}
	if _, ok := ft.WorstFit(resources.Cores(64, 64)); ok {
		t.Fatal("oversize should not fit")
	}
}

func TestRemainingHelpers(t *testing.T) {
	js := testJob()
	total := resources.Cores(100, 200)
	if got := RemainingVolume(js, total, 0); got <= 0 {
		t.Fatalf("volume: %v", got)
	}
	if got := RemainingTime(js, 0); got != 9 {
		t.Fatalf("time: %v", got)
	}
}
