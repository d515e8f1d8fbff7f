package sched

import (
	"fmt"
	"testing"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// BenchmarkJobCursor measures lazy task enumeration over a deep backlog
// — the structure that keeps per-decision cost O(active jobs) instead of
// O(pending tasks).
func BenchmarkJobCursor(b *testing.B) {
	j := &workload.Job{ID: 1, Name: "wide", App: "b", Phases: []workload.Phase{{
		Name: "p", Tasks: 10000, Demand: resources.Cores(1, 1), MeanDuration: 5,
	}}}
	js := workload.NewJobState(j)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := NewJobCursor(js)
		// A scheduler probes the head a handful of times per decision.
		for k := 0; k < 8; k++ {
			if _, ok := cur.Peek(); !ok {
				b.Fatal("cursor empty")
			}
			cur.Advance()
		}
	}
}

// BenchmarkFitTrackerBestFit measures best-fit selection the way the
// placement passes use it: every iteration places onto the previous
// answer and asks again, cycling through 1 or 28 demand shapes, with a
// Reset after every n placements as at the start of a Schedule call.
// 28 shapes per call is what the GoogleLike trace replay on 200
// servers queries; a clone round on 2000 servers queries one shape
// about 2,200 times.
func BenchmarkFitTrackerBestFit(b *testing.B) {
	for _, n := range []int{200, 2000} {
		for _, k := range []int{1, 28} {
			b.Run(fmt.Sprintf("servers=%d/shapes=%d", n, k), func(b *testing.B) {
				c := cluster.LargeFleet(n, 1)
				shapes := make([]resources.Vector, k)
				for i := range shapes {
					shapes[i] = resources.Vec(500+int64(i%7)*250, 1024+int64(i/7)*512)
				}
				ft := NewFitTracker(c)
				var srv cluster.ServerID
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%n == 0 {
						ft.Reset(c)
					} else {
						ft.Place(srv, shapes[(i-1)%k])
					}
					var ok bool
					if srv, ok = ft.BestFit(shapes[i%k]); !ok {
						b.Fatal("no fit")
					}
				}
			})
		}
	}
}

// BenchmarkReadyPendingTasks contrasts the eager enumeration with the
// cursor above.
func BenchmarkReadyPendingTasks(b *testing.B) {
	j := &workload.Job{ID: 1, Name: "wide", App: "b", Phases: []workload.Phase{{
		Name: "p", Tasks: 10000, Demand: resources.Cores(1, 1), MeanDuration: 5,
	}}}
	js := workload.NewJobState(j)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ReadyPendingTasks(js); len(got) != 10000 {
			b.Fatal("short list")
		}
	}
}
