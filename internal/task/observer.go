package task

// Observer receives task-graph lifecycle events for the runtime sanitizer
// and the graph recorder (driver.GraphRecorder). All callbacks are invoked
// with the runtime's internal lock held, so they are serialised with
// respect to each other; implementations must not call back into the
// Runtime. Every hook site is nil-guarded: a runtime without
// an observer pays one pointer check per event and nothing else.
//
// Task ids are positive and unique within one Runtime, in spawn order.
// WaitAccess/WaitKeys pseudo-tasks carry no id; they surface only as
// TaskWait events, never as spawns, edges or completions.
type Observer interface {
	// TaskSpawned fires when Spawn registers a task, before any of its
	// dependence edges. The accs slice is the caller's; implementations
	// must copy what they keep.
	TaskSpawned(id uint64, label string, accs []Access)
	// TaskDependence fires when the graph adds an edge: succ will not
	// start until pred has released its dependencies.
	TaskDependence(pred, succ uint64)
	// TaskFinished fires when a task releases its dependencies (body
	// returned and all bound events completed).
	TaskFinished(id uint64)
	// TaskWait fires when WaitAccess (or WaitKeys) registers a taskwait
	// with dependencies, before it blocks. The accs slice is the
	// caller's; implementations must copy what they keep.
	TaskWait(accs []Access)
	// Quiesced fires when Wait observes a fully drained graph: every task
	// spawned so far has finished, so accesses before the quiescent point
	// are ordered against everything spawned after it.
	Quiesced()
}

// Tee fans lifecycle events out to several observers in argument order.
// Nil entries are dropped; with one live observer it is returned
// unwrapped, and with none Tee returns nil, preserving the runtime's
// observer-is-nil fast path.
func Tee(obs ...Observer) Observer {
	live := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Observer

func (t tee) TaskSpawned(id uint64, label string, accs []Access) {
	for _, o := range t {
		o.TaskSpawned(id, label, accs)
	}
}

func (t tee) TaskDependence(pred, succ uint64) {
	for _, o := range t {
		o.TaskDependence(pred, succ)
	}
}

func (t tee) TaskFinished(id uint64) {
	for _, o := range t {
		o.TaskFinished(id)
	}
}

func (t tee) TaskWait(accs []Access) {
	for _, o := range t {
		o.TaskWait(accs)
	}
}

func (t tee) Quiesced() {
	for _, o := range t {
		o.Quiesced()
	}
}
