// Package task implements the data-flow tasking runtime the reproduction
// uses in place of OmpSs-2.
//
// Tasks are units of work annotated with dependencies — in (read), out
// (write) or inout accesses on opaque comparable keys, the analogue of
// OmpSs-2/OpenMP dependency clauses over memory regions. The runtime builds
// the task graph incrementally as tasks are spawned and runs a task once
// every predecessor has released its dependencies. Multidependencies are
// simply access lists with several keys.
//
// Features mirrored from OmpSs-2 because the paper relies on them:
//
//   - External events: a task may bind outstanding events (in-flight MPI
//     requests, via the tampi package) so that it releases its
//     dependencies only after both its body has returned and every bound
//     event has completed. This is what makes non-blocking TAMPI
//     operations safe inside tasks.
//   - Blocking suspension: a task may suspend until a channel closes
//     (tampi's blocking operations), releasing its core to other tasks.
//   - Taskwait and taskwait-with-dependencies (WaitAccess/WaitKeys), the
//     feature behind the paper's delayed checksum validation.
//   - An immediate-successor scheduling policy: when a task finishes and
//     unblocks successors, the same virtual core continues with one of
//     them, exploiting temporal locality. The paper credits this policy
//     for the IPC improvement of the data-flow variant; it can be turned
//     off for ablation benchmarks.
//
// Concurrency is bounded by a fixed number of virtual cores (workers).
// Each running task holds one core; suspension and event-bound completion
// release the core so communication-heavy tasks never starve computation.
package task

import (
	"fmt"
	"sync"
)

// Mode distinguishes the access kinds of a dependency clause.
type Mode uint8

const (
	// ModeIn declares a read access: the task runs after the last writer
	// of the key, concurrently with other readers.
	ModeIn Mode = iota
	// ModeOut declares a write access: the task runs after the last
	// writer and all readers since. (No renaming is attempted, so ModeOut
	// and ModeInOut order identically, as in OpenMP.)
	ModeOut
	// ModeInOut declares a read-write access.
	ModeInOut
)

func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	}
	return "unknown"
}

// Access is one dependency clause entry: a mode over a key. Keys may be any
// comparable value; two accesses conflict when their keys are equal.
type Access struct {
	Key  any
	Mode Mode
}

// In builds read accesses over keys.
func In(keys ...any) []Access { return accesses(ModeIn, keys) }

// Out builds write accesses over keys.
func Out(keys ...any) []Access { return accesses(ModeOut, keys) }

// InOut builds read-write accesses over keys.
func InOut(keys ...any) []Access { return accesses(ModeInOut, keys) }

func accesses(m Mode, keys []any) []Access {
	out := make([]Access, len(keys))
	for i, k := range keys {
		out[i] = Access{Key: k, Mode: m}
	}
	return out
}

// Merge concatenates access lists, a convenience for combining In(...) and
// Out(...) clauses on one task.
func Merge(lists ...[]Access) []Access {
	var out []Access
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// Options configure a Runtime.
type Options struct {
	// Workers is the number of virtual cores. Must be positive.
	Workers int
	// DisableImmediateSuccessor turns off the locality policy: finished
	// tasks always push ready successors to the global queue instead of
	// continuing with one on the same core. For ablation measurements.
	DisableImmediateSuccessor bool
	// OnTaskEnd, when set, is invoked after each task body completes with
	// the task's label and the virtual core that ran it. Used by tracing.
	OnTaskEnd func(label string, worker int)
	// Observer, when set, receives task-graph lifecycle events (spawns,
	// dependence edges, completions, taskwaits, quiescent points). Used by
	// the runtime sanitizer and the graph recorder; nil costs nothing.
	Observer Observer
}

// Runtime schedules tasks over a fixed set of virtual cores.
type Runtime struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled when live hits zero
	deps    map[any]*depState
	live    int  // spawned but not yet fully finished tasks
	spawned int  // total tasks ever spawned
	closed  bool // Shutdown called

	cores      chan int // virtual core ids; capacity = Workers
	imsucc     bool
	onTaskEnd  func(string, int)
	obs        Observer // nil unless a sanitizer is attached
	nextID     uint64   // task id source; guarded by mu
	firstPanic any
	panicOnce  sync.Once
}

// depState tracks the most recent writer and subsequent readers of a key.
type depState struct {
	lastWriter *node
	readers    []*node // readers since lastWriter
}

// NewRuntime creates a runtime with the given options.
func NewRuntime(opts Options) (*Runtime, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("task: Workers must be positive, got %d", opts.Workers)
	}
	rt := &Runtime{
		deps:      make(map[any]*depState),
		cores:     make(chan int, opts.Workers),
		imsucc:    !opts.DisableImmediateSuccessor,
		onTaskEnd: opts.OnTaskEnd,
		obs:       opts.Observer,
	}
	rt.cond = sync.NewCond(&rt.mu)
	for i := 0; i < opts.Workers; i++ {
		rt.cores <- i
	}
	return rt, nil
}

// MustNewRuntime is NewRuntime but panics on invalid options.
func MustNewRuntime(opts Options) *Runtime {
	rt, err := NewRuntime(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// Workers returns the number of virtual cores.
func (rt *Runtime) Workers() int { return cap(rt.cores) }

// SpawnCount returns the total number of tasks spawned so far.
func (rt *Runtime) SpawnCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.spawned
}

// Spawn submits a task with a label (for tracing), a body and dependency
// accesses. The task becomes ready once all conflicting predecessors have
// released their dependencies, and releases its own dependencies when the
// body has returned and all bound events have completed.
func (rt *Runtime) Spawn(label string, body func(t *Task), accs ...Access) {
	n := &node{
		rt:     rt,
		label:  label,
		body:   body,
		events: 1, // the body itself
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("task: Spawn after Shutdown")
	}
	rt.nextID++
	n.id = rt.nextID
	rt.spawned++
	rt.live++
	if rt.obs != nil {
		rt.obs.TaskSpawned(n.id, label, accs)
	}
	rt.link(n, accs)
	ready := n.pending == 0
	rt.mu.Unlock()
	if ready {
		go n.run(-1)
	}
}

// link wires n into the dependency graph. Caller holds rt.mu.
func (rt *Runtime) link(n *node, accs []Access) {
	for _, a := range accs {
		st, ok := rt.deps[a.Key]
		if !ok {
			st = &depState{}
			rt.deps[a.Key] = st
		}
		switch a.Mode {
		case ModeIn:
			rt.addEdge(st.lastWriter, n)
			st.readers = append(st.readers, n)
		case ModeOut, ModeInOut:
			rt.addEdge(st.lastWriter, n)
			for _, r := range st.readers {
				rt.addEdge(r, n)
			}
			st.lastWriter = n
			st.readers = st.readers[:0]
		}
	}
}

// addEdge makes succ depend on pred unless pred is absent, finished, or
// identical to succ (a task reading and writing the same key must not
// depend on itself). Caller holds rt.mu.
func (rt *Runtime) addEdge(pred, succ *node) {
	if pred == nil || pred == succ || pred.finished {
		return
	}
	pred.successors = append(pred.successors, succ)
	succ.pending++
	if rt.obs != nil && pred.id != 0 && succ.id != 0 {
		rt.obs.TaskDependence(pred.id, succ.id)
	}
}

// Wait blocks until every spawned task has finished (an OmpSs-2/OpenMP
// taskwait). If any task panicked, Wait re-panics with the first panic
// value after the graph drains.
func (rt *Runtime) Wait() {
	rt.mu.Lock()
	for rt.live > 0 {
		rt.cond.Wait()
	}
	if rt.obs != nil {
		rt.obs.Quiesced()
	}
	p := rt.firstPanic
	rt.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// WaitAccess blocks until the given accesses could be satisfied — the
// OmpSs-2 "taskwait with dependencies". An in-access waits only for the
// last writer of the key; an out/inout access also waits for readers.
// Unlike Wait, unrelated tasks keep running and new tasks may be spawned
// by other goroutines concurrently.
func (rt *Runtime) WaitAccess(accs ...Access) {
	w := &node{rt: rt, waitCh: make(chan struct{})}
	rt.mu.Lock()
	if rt.obs != nil {
		rt.obs.TaskWait(accs)
	}
	for _, a := range accs {
		st, ok := rt.deps[a.Key]
		if !ok {
			continue
		}
		switch a.Mode {
		case ModeIn:
			rt.addEdge(st.lastWriter, w)
		case ModeOut, ModeInOut:
			rt.addEdge(st.lastWriter, w)
			for _, r := range st.readers {
				rt.addEdge(r, w)
			}
		}
	}
	ready := w.pending == 0
	rt.mu.Unlock()
	if !ready {
		<-w.waitCh
	}
	rt.rethrow()
}

// WaitKeys is WaitAccess with in-mode over the keys: it blocks until the
// last writers of all keys have finished.
func (rt *Runtime) WaitKeys(keys ...any) {
	rt.WaitAccess(In(keys...)...)
}

func (rt *Runtime) rethrow() {
	rt.mu.Lock()
	p := rt.firstPanic
	rt.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// Shutdown marks the runtime closed after draining all outstanding tasks.
// Further Spawns panic. It is safe to call Shutdown more than once.
func (rt *Runtime) Shutdown() {
	rt.Wait()
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
}
