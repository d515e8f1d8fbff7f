package sched

import (
	"fmt"
	"math"

	"dollymp/internal/cluster"
	"dollymp/internal/resources"
	"dollymp/internal/workload"
)

// PendingTask is one schedulable unit: a pending task of a ready phase.
type PendingTask struct {
	Ref    workload.TaskRef
	Demand resources.Vector
}

// ReadyPendingTasks lists the pending tasks of all ready phases of a job,
// in phase order. For jobs with multiple ready phases, earlier phases
// come first (matching Algorithm 2, which schedules "the first available
// phase" of each job before later ones).
func ReadyPendingTasks(js *workload.JobState) []PendingTask {
	var out []PendingTask
	for _, k := range js.ReadyPhases() {
		demand := js.Job.Phases[k].Demand
		for _, l := range js.PendingTasks(k) {
			out = append(out, PendingTask{
				Ref:    workload.TaskRef{Job: js.Job.ID, Phase: k, Index: l},
				Demand: demand,
			})
		}
	}
	return out
}

// FirstReadyPendingTask returns the first schedulable task of a job, or
// false if none exists.
func FirstReadyPendingTask(js *workload.JobState) (PendingTask, bool) {
	for _, k := range js.ReadyPhases() {
		pend := js.PendingTasks(k)
		if len(pend) > 0 {
			return PendingTask{
				Ref:    workload.TaskRef{Job: js.Job.ID, Phase: k, Index: pend[0]},
				Demand: js.Job.Phases[k].Demand,
			}, true
		}
	}
	return PendingTask{}, false
}

// FitTracker overlays tentative placements on the cluster's free
// capacities so a scheduler can plan a whole batch without mutating the
// engine-owned cluster state. It snapshots the free vectors at Reset
// (schedulers plan against a frozen decision point — the engine never
// mutates the ledger mid-call), which turns every query into a slice
// read instead of a map lookup plus a live ledger read.
type FitTracker struct {
	servers []*cluster.Server
	free    []resources.Vector
	total   resources.Vector
	// index maps server ID to fleet position when IDs are sparse;
	// nil while IDs are dense (position == ID).
	index map[cluster.ServerID]int

	// BestFit's block cache. Fleet positions are split into blocks of
	// ⌊√n⌋ and Place bumps the version of the block it touches. Every
	// demand shape queried since Reset keeps, per block, the block's
	// best fit and the version it was computed at, so a query rescans
	// only the blocks placed into since that shape last looked: O(√n)
	// per query after the shape's first full scan, instead of O(n).
	block    int
	versions []uint64
	shapes   map[resources.Vector][]blockBest
	// spare holds the per-block slices of the shapes dropped at Reset,
	// for reuse by the next call's shapes.
	spare [][]blockBest
}

// blockBest is one block's best fit for one demand shape: the fleet
// position maximizing demand·free within the block and its score (both
// −1 when nothing in the block fits), valid while the block's version
// still equals version.
type blockBest struct {
	score   float64
	pos     int
	version uint64
}

// NewFitTracker creates a tracker over the cluster's current free state.
func NewFitTracker(c *cluster.Cluster) *FitTracker {
	f := &FitTracker{}
	f.Reset(c)
	return f
}

// Reset re-snapshots the cluster's free capacities, dropping every
// tentative placement, so one tracker can serve many Schedule calls
// without reallocating.
func (f *FitTracker) Reset(c *cluster.Cluster) {
	f.servers = c.Servers()
	f.total = c.Total()
	f.free = f.free[:0]
	dense := true
	for i, s := range f.servers {
		f.free = append(f.free, s.Free())
		if int(s.ID) != i {
			dense = false
		}
	}
	n := len(f.servers)
	f.block = max(1, int(math.Sqrt(float64(n))))
	f.versions = append(f.versions[:0], make([]uint64, (n+f.block-1)/f.block)...)
	for _, blocks := range f.shapes {
		f.spare = append(f.spare, blocks)
	}
	clear(f.shapes)
	if dense {
		f.index = nil
		return
	}
	f.index = make(map[cluster.ServerID]int, len(f.servers))
	for i, s := range f.servers {
		f.index[s.ID] = i
	}
}

func (f *FitTracker) pos(id cluster.ServerID) int {
	if f.index == nil {
		return int(id)
	}
	if i, ok := f.index[id]; ok {
		return i
	}
	panic(fmt.Sprintf("sched: unknown server %d", id))
}

// Free returns the remaining capacity of a server after tentative
// placements.
func (f *FitTracker) Free(id cluster.ServerID) resources.Vector {
	return f.free[f.pos(id)]
}

// Fits reports whether demand fits server id now.
func (f *FitTracker) Fits(id cluster.ServerID, demand resources.Vector) bool {
	return demand.Fits(f.Free(id))
}

// Place tentatively consumes demand on server id. It returns false
// without consuming if the demand does not fit.
func (f *FitTracker) Place(id cluster.ServerID, demand resources.Vector) bool {
	i := f.pos(id)
	if !demand.Fits(f.free[i]) {
		return false
	}
	f.free[i] = f.free[i].Sub(demand)
	f.versions[i/f.block]++
	return true
}

// BestFit returns the fitting server maximizing demand·free, or false.
// Ties break toward the lower server ID (fleet order).
func (f *FitTracker) BestFit(demand resources.Vector) (cluster.ServerID, bool) {
	blocks, ok := f.shapes[demand]
	if !ok {
		blocks = f.newShape(demand)
	}
	// Strict > in ascending block order, over blocks that each keep
	// their first maximum, picks the same position as one ascending
	// scan of the whole fleet.
	best := -1
	bestScore := -1.0
	for b := range blocks {
		e := &blocks[b]
		if e.version != f.versions[b] {
			f.scanBlock(demand, b, e)
		}
		if e.score > bestScore {
			bestScore = e.score
			best = e.pos
		}
	}
	if best < 0 {
		return 0, false
	}
	return f.servers[best].ID, true
}

// newShape starts demand's block cache with a scan of every block,
// reusing a slice dropped at Reset when one is left.
func (f *FitTracker) newShape(demand resources.Vector) []blockBest {
	var blocks []blockBest
	if k := len(f.spare); k > 0 {
		blocks = f.spare[k-1]
		f.spare = f.spare[:k-1]
	}
	blocks = append(blocks[:0], make([]blockBest, len(f.versions))...)
	for b := range blocks {
		f.scanBlock(demand, b, &blocks[b])
	}
	if f.shapes == nil {
		f.shapes = make(map[resources.Vector][]blockBest)
	}
	f.shapes[demand] = blocks
	return blocks
}

// scanBlock recomputes block b's best fit for demand at its current
// version.
func (f *FitTracker) scanBlock(demand resources.Vector, b int, e *blockBest) {
	lo := b * f.block
	hi := min(lo+f.block, len(f.free))
	e.score, e.pos, e.version = -1, -1, f.versions[b]
	for i := lo; i < hi; i++ {
		free := f.free[i]
		if !demand.Fits(free) {
			continue
		}
		score := demand.Dot(free, f.total)
		if score > e.score {
			e.score = score
			e.pos = i
		}
	}
}

// WorstFit returns the fitting server with the largest remaining free
// capacity by dominant share (load balancing), or false.
func (f *FitTracker) WorstFit(demand resources.Vector) (cluster.ServerID, bool) {
	best := -1
	bestScore := -1.0
	for i, free := range f.free {
		if !demand.Fits(free) {
			continue
		}
		score := free.DominantShare(f.total)
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	if best < 0 {
		return 0, false
	}
	return f.servers[best].ID, true
}

// TotalFree returns cluster-wide free capacity after tentative
// placements.
func (f *FitTracker) TotalFree() resources.Vector {
	var free resources.Vector
	for _, v := range f.free {
		free = free.Add(v)
	}
	return free
}

// RemainingVolume returns the job's unfinished effective volume (Eq. 16),
// a shared priority input for SVF-style policies.
func RemainingVolume(js *workload.JobState, total resources.Vector, r float64) float64 {
	return js.UpdatedVolume(total, r)
}

// RemainingTime returns the job's unfinished critical-path length
// (Eq. 17), the SRPT priority input.
func RemainingTime(js *workload.JobState, r float64) float64 {
	return js.UpdatedProcessingTime(r)
}
