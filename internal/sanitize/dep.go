package sanitize

import (
	"fmt"
	"sync"

	"miniamr/internal/task"
)

// DepSanitizer is the per-rank dependency-race checker. It implements
// task.Observer to mirror the dependency graph (declared access sets,
// edges, completions), and exposes NoteRead/NoteWrite for task bodies to
// report the regions they actually touch and BindRegion for drivers to
// register which storage a dependency key stands for.
//
// The happens-before oracle is exact for the runtime's semantics: task A
// is ordered before task B iff there is a chain from A to B of dependence
// edges and finished-before-spawned links (a task that fully finished
// before another was spawned is ordered with it through the runtime's
// lock). Conflicting accesses by unordered tasks are reportable: since
// correctly declared conflicts always produce an ordering edge, any
// unordered conflict involves an undeclared access.
type DepSanitizer struct {
	s    *Sanitizer
	rank int

	mu     sync.Mutex
	seq    uint64 // logical clock over spawn/finish events
	tasks  map[uint64]*taskRec
	shadow map[any]*regionRec
	binds  map[any]regionBind
}

type taskRec struct {
	label    string
	declared map[any]task.Mode
	preds    []uint64
	birthSeq uint64
	finSeq   uint64 // 0 while running
}

type regionAccess struct {
	id    uint64
	write bool
}

type regionRec struct {
	accs []regionAccess
}

type regionBind struct {
	key  any
	site string
}

func newDepSanitizer(s *Sanitizer, rank int) *DepSanitizer {
	return &DepSanitizer{
		s:      s,
		rank:   rank,
		tasks:  make(map[uint64]*taskRec),
		shadow: make(map[any]*regionRec),
		binds:  make(map[any]regionBind),
	}
}

// TaskSpawned implements task.Observer.
func (ds *DepSanitizer) TaskSpawned(id uint64, label string, accs []task.Access) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.seq++
	rec := &taskRec{
		label:    label,
		declared: make(map[any]task.Mode, len(accs)),
		birthSeq: ds.seq,
	}
	for _, a := range accs {
		// Repeated declarations of one key fold into their union: in+out
		// (in either order) behaves as inout.
		if old, had := rec.declared[a.Key]; had && old != a.Mode {
			rec.declared[a.Key] = task.ModeInOut
		} else {
			rec.declared[a.Key] = a.Mode
		}
	}
	ds.tasks[id] = rec
}

// TaskDependence implements task.Observer.
func (ds *DepSanitizer) TaskDependence(pred, succ uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if rec, ok := ds.tasks[succ]; ok {
		rec.preds = append(rec.preds, pred)
	}
}

// TaskFinished implements task.Observer.
func (ds *DepSanitizer) TaskFinished(id uint64) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if rec, ok := ds.tasks[id]; ok {
		ds.seq++
		rec.finSeq = ds.seq
	}
}

// TaskWait implements task.Observer. A taskwait with dependencies
// orders only the waiting goroutine, whose accesses are not shadowed,
// against the waited tasks; ordering among tasks is unchanged (a task
// spawned after the wait already follows the waited tasks through the
// finished-before-spawned link), so there is nothing to record.
func (ds *DepSanitizer) TaskWait(accs []task.Access) {}

// Quiesced implements task.Observer: everything before the quiescent
// point is ordered against everything after it, so the epoch's shadow
// state can be dropped, bounding memory across refinement epochs.
func (ds *DepSanitizer) Quiesced() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.tasks = make(map[uint64]*taskRec)
	ds.shadow = make(map[any]*regionRec)
	ds.binds = make(map[any]regionBind)
}

// NoteRead reports that the task is reading the region behind key.
func (ds *DepSanitizer) NoteRead(t *task.Task, key any) { ds.note(t, key, false) }

// NoteWrite reports that the task is writing the region behind key.
func (ds *DepSanitizer) NoteWrite(t *task.Task, key any) { ds.note(t, key, true) }

func (ds *DepSanitizer) note(t *task.Task, key any, write bool) {
	id := t.ID()
	ds.mu.Lock()
	rec, ok := ds.tasks[id]
	if !ok {
		// Task predates the current epoch's records (spawned before the
		// observer attached); nothing sound can be said about it.
		ds.mu.Unlock()
		return
	}
	if write {
		if m, declared := rec.declared[key]; declared && m == task.ModeIn {
			ds.mu.Unlock()
			ds.s.report(
				fmt.Sprintf("write-via-in|%d|%v|%s", ds.rank, key, rec.label),
				Report{
					Check: KindWriteViaIn,
					Rank:  ds.rank,
					Task:  rec.label,
					Key:   fmt.Sprintf("%v", key),
					Msg:   "task writes a region it declared only as in; successors may read it unordered",
					Stack: captureStack(2),
				})
			ds.mu.Lock()
		}
	}
	rr := ds.shadow[key]
	if rr == nil {
		rr = &regionRec{}
		ds.shadow[key] = rr
	}
	for _, pa := range rr.accs {
		if pa.id == id && pa.write == write {
			ds.mu.Unlock()
			return // already recorded and checked
		}
	}
	races := 0
	var raceWith []regionAccess
	for _, pa := range rr.accs {
		if pa.id == id {
			continue
		}
		if ds.orderedLocked(pa.id, id) {
			continue
		}
		// Unordered: only conflicting pairs (at least one write) are
		// violations, but unordered read-read pairs block pruning below.
		races++
		if pa.write || write {
			raceWith = append(raceWith, pa)
		}
	}
	if write && races == 0 {
		// This write is ordered after every recorded access, so by
		// transitivity any later access ordered with it is ordered with
		// them too: the region's history collapses to this single write.
		// This keeps shadow lists O(accessors per stage) and the
		// happens-before queries shallow.
		rr.accs = append(rr.accs[:0], regionAccess{id: id, write: true})
	} else {
		rr.accs = append(rr.accs, regionAccess{id: id, write: write})
	}
	// Snapshot the labels before dropping the lock to report.
	type racePair struct{ a, b string }
	var pairs []racePair
	for _, pa := range raceWith {
		other := ds.tasks[pa.id]
		if other == nil {
			continue
		}
		pairs = append(pairs, racePair{a: other.label, b: rec.label})
	}
	ds.mu.Unlock()
	for _, p := range pairs {
		ds.s.report(
			fmt.Sprintf("dep-race|%d|%v|%s|%s", ds.rank, key, p.a, p.b),
			Report{
				Check: KindDepRace,
				Rank:  ds.rank,
				Task:  rec.label,
				Key:   fmt.Sprintf("%v", key),
				Msg: fmt.Sprintf(
					"conflicting access with concurrently-schedulable task %q is not covered by declared dependencies", p.a),
				Stack: captureStack(2),
			})
	}
}

// orderedLocked reports whether task a is ordered before task b: a chain
// of dependence edges and finished-before-spawned links leads from a to
// b. Caller holds ds.mu. The search walks b's graph ancestors; at each
// ancestor x the finished-before-spawned link from a is tested, which
// covers chains mixing both link kinds (an all-edge prefix from a only
// lowers a's finish sequence further below x's birth).
func (ds *DepSanitizer) orderedLocked(a, b uint64) bool {
	ra := ds.tasks[a]
	if ra == nil {
		// Unknown predecessor: it was spawned in a previous epoch, which
		// the quiescent point ordered before everything current.
		return true
	}
	// Breadth-first over b's ancestors: correctly declared conflicts make
	// a a direct (or near-direct) predecessor, so the common query
	// terminates after one layer instead of exploring a whole ancestor
	// cone depth-first.
	visited := map[uint64]bool{b: true}
	queue := []uint64{b}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == a {
			return true
		}
		rx := ds.tasks[x]
		if rx == nil {
			continue
		}
		if ra.finSeq != 0 && ra.finSeq < rx.birthSeq {
			return true
		}
		for _, p := range rx.preds {
			if !visited[p] {
				visited[p] = true
				queue = append(queue, p)
			}
		}
	}
	return false
}

// BindRegion registers that dependency key stands for the storage
// identified by base (typically a pointer to the region's first element).
// Binding one base under two distinct keys within a binding scope is a
// key-aliasing violation: tasks addressing the same data through
// different keys are never ordered by the graph.
func (ds *DepSanitizer) BindRegion(key any, base any) {
	ds.mu.Lock()
	prev, ok := ds.binds[base]
	if !ok {
		ds.binds[base] = regionBind{key: key, site: captureStack(1)}
		ds.mu.Unlock()
		return
	}
	ds.mu.Unlock()
	if prev.key == key {
		return
	}
	ds.s.report(
		fmt.Sprintf("key-alias|%d|%v|%v", ds.rank, prev.key, key),
		Report{
			Check: KindKeyAlias,
			Rank:  ds.rank,
			Key:   fmt.Sprintf("%v", key),
			Msg: fmt.Sprintf(
				"region already bound under distinct key %v; tasks using the two keys are never ordered", prev.key),
			Stack: captureStack(1),
		})
}

// ResetBindings opens a new binding scope. Drivers call it when the
// storage behind their keys may legitimately be recycled (a new exchange
// round drawing fresh arena buffers); aliasing is only meaningful among
// simultaneously-live regions.
func (ds *DepSanitizer) ResetBindings() {
	ds.mu.Lock()
	ds.binds = make(map[any]regionBind)
	ds.mu.Unlock()
}
