package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanKind names the layer call a span covers. Every span is recorded
// by the benchmark's own code around a call into a package's public
// function; nothing inside the program is instrumented.
type spanKind uint8

const (
	spanDecode       spanKind = iota // trace.Stream.Next
	spanInject                       // sim.Engine.InjectJob
	spanStep                         // sim.Engine.Step
	spanSchedule                     // core.Scheduler.Schedule (inside Step)
	spanArrival                      // core.Scheduler.OnJobArrival (inside Step)
	spanClientSubmit                 // client.Client.Submit
	spanClientJob                    // client.Client.Job
	spanShardSubmit                  // shard.Router.SubmitNowait (inside the HTTP handler)
	spanShardJob                     // shard.Router.Job (inside the HTTP handler)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"trace.Stream.Next",
	"sim.Engine.InjectJob",
	"sim.Engine.Step",
	"core.Scheduler.Schedule",
	"core.Scheduler.OnJobArrival",
	"client.Client.Submit",
	"client.Client.Job",
	"shard.Router.SubmitNowait",
	"shard.Router.Job",
}

// span is one timed call. Times are nanoseconds since the tracer's
// base. parent is the index of the enclosing span (-1 for a root);
// req ties together the spans of one HTTP request, which run on
// different goroutines and so cannot nest by stack.
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
	req        int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the length of a run; write dumps
// them once the run is over. begin/end nest spans on a stack and are
// for a single goroutine (the engine replay loop); record appends a
// finished root span and is safe from any goroutine.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
	open  []int32
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, kind: k})
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int32) {
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// record appends a finished root span.
func (t *tracer) record(k spanKind, req int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)),
		parent: -1, kind: k, req: req,
	})
	t.mu.Unlock()
}

// layerTimes sums, per span kind, total time, self time (the span
// minus the time its child spans cover) and the span count.
type layerTimes struct {
	total, self [numSpanKinds]int64
	count       [numSpanKinds]int64
}

func (t *tracer) times() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lt layerTimes
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	for i, s := range t.spans {
		lt.total[s.kind] += s.dur()
		lt.self[s.kind] += s.dur() - child[i]
		lt.count[s.kind]++
	}
	return lt
}

// durations returns the durations (in ns) of every span of kind k.
func (t *tracer) durations(k spanKind) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// byReq indexes the durations of kind-k spans by request ID.
func (t *tracer) byReq(k spanKind) map[int64]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]int64)
	for _, s := range t.spans {
		if s.kind == k {
			out[s.req] = s.dur()
		}
	}
	return out
}

// write dumps every span as one tab-separated line: name, start and end
// in ns since the run began, parent index, request ID.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span\tstart_ns\tend_ns\tparent\treq")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
