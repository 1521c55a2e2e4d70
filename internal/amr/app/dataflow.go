package app

import (
	"fmt"
	"time"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
)

// Dependency keys of the data-flow taskification. Dependencies are
// declared at the granularity the paper describes: a mesh block and its
// variable group (never individual faces), plus communication buffer
// sections.
type (
	// blockKey is a block's variable-group range. Block state persists
	// across timesteps, chaining pack -> local-copy -> boundary ->
	// unpack -> stencil -> checksum.
	blockKey struct {
		c mesh.Coord
		g int // group index
	}
	// sectKey is one transfer's section of a message buffer. dirKey is the
	// direction+1, or 0 when buffers are shared across directions
	// (reproducing the false dependencies that --separate_buffers removes).
	// Sections are per-stage: produced, consumed once, recycled.
	sectKey struct {
		dirKey int
		peer   int
		msg    int
		send   bool
		idx    int
	}
	// slotKey is a per-block checksum accumulator slot; parity alternates
	// between consecutive checksum stages for the delayed validation
	// (class matching: the delayed flush reads the other parity).
	slotKey struct {
		c      mesh.Coord
		parity int
	}
	// xferKey orders the pack->send and recv->unpack pairs of the
	// refinement block exchange, keyed by the move's data tag.
	xferKey struct {
		tag  int
		recv bool
	}
)

// RunDataFlow executes the simulation with the paper's hybrid data-flow
// strategy: every phase is taskified, tasks connect through data
// dependencies, and MPI operations are issued from tasks through the
// task-aware MPI layer, overlapping phases without global barriers.
func RunDataFlow(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s, err := newState(&cfg, c, rec, cfg.chunkCap())
	if err != nil {
		return Result{}, err
	}
	var obs task.Observer
	if cfg.TaskObserver != nil {
		obs = cfg.TaskObserver(c.Rank())
	}
	g, err := driver.NewGraphEngine(driver.GraphOptions{
		Comm:                      c,
		Recorder:                  rec,
		Workers:                   cfg.Workers,
		DisableImmediateSuccessor: cfg.DisableImmediateSuccessor,
		Sanitizer:                 cfg.Sanitizer,
		Observer:                  obs,
		ScratchLen:                scratchLen(&cfg),
	})
	if err != nil {
		return Result{}, err
	}
	d := &dataFlowDriver{s: s, g: g}
	res, err := runMain(s, d)
	if err != nil {
		return Result{}, err
	}
	res.TaskCount = g.SpawnCount()
	g.Close()
	s.close()
	return res, nil
}

type dataFlowDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine

	// Delayed-checksum state: two parities of per-block sum slots.
	parity     int
	slots      [2]map[mesh.Coord][]float64
	slotBlocks [2][]mesh.Coord
	pending    [2]bool
}

// dirKey folds the direction into buffer keys, or collapses all directions
// onto one key space when buffers are shared.
func (d *dataFlowDriver) dirKey(dir grid.Dir) int {
	if d.s.cfg.SeparateBuffers {
		return int(dir) + 1
	}
	return 0
}

// groupIndex converts a group's first variable to its index.
func (d *dataFlowDriver) groupIndex(g0 int) int { return g0 / d.s.cfg.CommVars }

// communicate taskifies the ghost exchange (the paper's Algorithm 3): a
// receive task per message binding the request, pack tasks per face, send
// tasks per message with multidependencies on the packed sections, local
// copy tasks, and unpack tasks fed by the receive's buffer sections.
func (d *dataFlowDriver) communicate(g0, g1 int) error {
	s := d.s
	gv := g1 - g0
	gi := d.groupIndex(g0)
	// Refinement may have rebuilt the exchange plans with recycled
	// storage; aliasing is only meaningful within one set of plans
	// (with the sanitizer off this is a nil check).
	d.g.ResetBindings()
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		sched := s.scheds[dir]
		dk := d.dirKey(dir)

		// Pending unpack work, spawned only after all pack tasks: packers
		// must depend solely on the previous stage's stencil, never on
		// this stage's arrivals, or two ranks exchanging faces would wait
		// on each other (Algorithm 3 orders the phases the same way).
		type unpackJob struct {
			tr  comm.Transfer
			sec []float64
			key sectKey
		}
		var unpacks []unpackJob

		// Receives: one task per incoming message; its completion is
		// bound to the MPI request, so unpackers run only once the
		// data arrived (the buffer must not be consumed in the task).
		for pi := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][pi]
			peer, mi, msg, tag := pl.peer, pl.mi, pl.msg, pl.tag
			buf := s.recvBufs[dir].Buf(pi)[:pl.cells*gv]
			secs := make([]any, len(msg))
			for i := range msg {
				secs[i] = sectKey{dirKey: dk, peer: peer, msg: mi, idx: i}
			}
			d.g.Spawn("recv", func(t *task.Task) {
				for _, k := range secs {
					d.g.NoteWrite(t, k) // the arriving message fills every section
				}
				if s.cfg.BlockingTAMPI {
					// TAMPI's blocking mode: the task pauses until the
					// message arrives, releasing its core meanwhile.
					start := time.Now()
					if _, err := d.g.X.Recv(t, buf, peer, tag); err != nil {
						panic(err)
					}
					s.rec.Record(s.rank, t.Worker(), "recv-wait", start, time.Now())
					return
				}
				req, err := s.comm.Irecv(buf, peer, tag)
				if err != nil {
					panic(err)
				}
				d.g.RecordInFlight(t, "recv-wait", req)
				d.g.X.Iwait(t, req)
			}, task.Out(secs...)...)

			off := 0
			for i, tr := range msg {
				sec := buf[off : off+tr.Len(gv)]
				off += tr.Len(gv)
				d.g.BindSection(secs[i], sec)
				unpacks = append(unpacks, unpackJob{tr: tr, sec: sec, key: secs[i].(sectKey)})
			}
		}

		// Sends: the message buffer is a fresh arena lease; pack tasks
		// per face write their section of it, one send task per message
		// depends on all the sections and transfers the lease to the
		// MPI layer (the receiving rank returns it to the arena). The
		// section keys — not the physical buffers — carry the paper's
		// buffer-reuse dependencies, so chaining behaviour is unchanged.
		for pi := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][pi]
			peer, mi, msg, tag := pl.peer, pl.mi, pl.msg, pl.tag
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			buf := lease.Float64()
			secs := make([]any, len(msg))
			for i := range msg {
				secs[i] = sectKey{dirKey: dk, peer: peer, msg: mi, send: true, idx: i}
			}
			off := 0
			for i, tr := range msg {
				tr := tr
				sec := buf[off : off+tr.Len(gv)]
				off += tr.Len(gv)
				secKey := secs[i]
				d.g.Spawn("pack", func(t *task.Task) {
					d.g.NoteRead(t, blockKey{c: tr.Src, g: gi})
					d.g.NoteWrite(t, secKey)
					s.rec.Span(s.rank, t.Worker(), "pack", func() {
						comm.Pack(tr, s.data[tr.Src], g0, g1, sec)
					})
				}, task.Merge(
					task.In(blockKey{c: tr.Src, g: gi}),
					task.Out(secKey),
				)...)
			}
			d.g.Spawn("send", func(t *task.Task) {
				for _, k := range secs {
					d.g.NoteRead(t, k) // the send serialises every packed section
				}
				if s.cfg.BlockingTAMPI {
					start := time.Now()
					if err := d.g.X.SendOwned(t, lease, peer, tag); err != nil {
						panic(err)
					}
					s.rec.Record(s.rank, t.Worker(), "send-wait", start, time.Now())
					return
				}
				req, err := s.comm.IsendOwned(lease, peer, tag)
				if err != nil {
					panic(err)
				}
				d.g.RecordInFlight(t, "send-wait", req)
				d.g.X.Iwait(t, req)
			}, task.In(secs...)...)
		}

		// Intra-process exchanges: local copy tasks between neighbouring
		// blocks of this rank.
		for _, tr := range sched.Local {
			tr := tr
			d.g.Spawn("local-copy", func(t *task.Task) {
				d.g.NoteRead(t, blockKey{c: tr.Src, g: gi})
				d.g.NoteWrite(t, blockKey{c: tr.Recv, g: gi})
				s.rec.Span(s.rank, t.Worker(), "local-copy", func() {
					comm.ExecuteLocal(tr, s.data[tr.Src], s.data[tr.Recv], g0, g1, d.g.Scratch(t.Worker()))
				})
			}, task.Merge(
				task.In(blockKey{c: tr.Src, g: gi}),
				task.InOut(blockKey{c: tr.Recv, g: gi}),
			)...)
		}
		for _, bf := range sched.Boundary {
			bf := bf
			dir := dir
			d.g.Spawn("boundary", func(t *task.Task) {
				d.g.NoteWrite(t, blockKey{c: bf.Block, g: gi})
				s.data[bf.Block].ApplyDomainBoundary(dir, bf.Side, g0, g1)
			}, task.InOut(blockKey{c: bf.Block, g: gi})...)
		}

		// Unpackers: consume the receive's buffer sections into block
		// ghosts once the bound requests complete.
		for _, uj := range unpacks {
			tr, sec := uj.tr, uj.sec
			key := uj.key
			d.g.Spawn("unpack", func(t *task.Task) {
				d.g.NoteRead(t, key)
				d.g.NoteWrite(t, blockKey{c: tr.Recv, g: gi})
				s.rec.Span(s.rank, t.Worker(), "unpack", func() {
					comm.Unpack(tr, s.data[tr.Recv], g0, g1, sec)
				})
			}, task.Merge(
				task.In(uj.key),
				task.InOut(blockKey{c: tr.Recv, g: gi}),
			)...)
		}
	}
	return d.g.X.Err()
}

// stencil spawns one task per block, depending in-out on the block's
// variable group so it naturally follows the ghost fills.
func (d *dataFlowDriver) stencil(g0, g1 int) error {
	s := d.s
	gi := d.groupIndex(g0)
	for _, bc := range s.owned() {
		bc := bc
		blk := s.data[bc]
		d.g.Spawn("stencil", func(t *task.Task) {
			d.g.NoteWrite(t, blockKey{c: bc, g: gi})
			s.rec.Span(s.rank, t.Worker(), "stencil", func() { s.runStencil(blk, g0, g1) })
		}, task.InOut(blockKey{c: bc, g: gi})...)
		s.flops += s.stencilFlops(blk, g0, g1)
	}
	return nil
}

// checksum spawns local-reduction tasks into the current parity's slots
// and validates either this stage (default) or the previous one
// (DelayedChecksum), so the barrier does not drain in-flight stages.
func (d *dataFlowDriver) checksum() error {
	s := d.s
	par := d.parity
	d.parity ^= 1

	owned := s.owned()
	d.slots[par] = make(map[mesh.Coord][]float64, len(owned))
	d.slotBlocks[par] = owned
	groups := s.cfg.Groups()
	for _, bc := range owned {
		slot := s.arena.GetFloat64(s.cfg.Vars) // Checksum overwrites it
		d.slots[par][bc] = slot
		blk := s.data[bc]
		deps := make([]any, 0, len(groups))
		for gi := range groups {
			deps = append(deps, blockKey{c: bc, g: gi})
		}
		bc := bc
		d.g.Spawn("cksum-local", func(t *task.Task) {
			for _, dep := range deps {
				d.g.NoteRead(t, dep)
			}
			d.g.NoteWrite(t, slotKey{c: bc, parity: par})
			s.rec.Span(s.rank, t.Worker(), "cksum-local", func() {
				blk.Checksum(0, s.cfg.Vars, slot)
			})
		}, task.Merge(task.In(deps...), task.Out(slotKey{c: bc, parity: par}))...)
	}
	d.pending[par] = true

	if s.cfg.DelayedChecksum {
		// Validate the previous stage's sums; its tasks have almost
		// certainly completed, so this "taskwait with dependencies" lets
		// the current stage keep flowing.
		return d.flushChecksum(par ^ 1)
	}
	return d.flushChecksum(par)
}

// flushChecksum waits (with dependencies only) for one parity's local
// reductions and runs the global reduction and validation.
func (d *dataFlowDriver) flushChecksum(par int) error {
	if !d.pending[par] {
		return nil
	}
	d.pending[par] = false
	s := d.s
	blocks := d.slotBlocks[par]
	keys := make([]any, len(blocks))
	for i, bc := range blocks {
		keys[i] = slotKey{c: bc, parity: par}
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := s.combineBlockSums(blocks, d.slots[par])
	for _, bc := range blocks {
		s.arena.PutFloat64(d.slots[par][bc])
	}
	d.slots[par] = nil
	return s.reduceAndValidate(local)
}

// quiesce closes the parallelism (the explicit taskwait the paper keeps
// before refinement) and settles any pending delayed checksum.
func (d *dataFlowDriver) quiesce() error {
	d.g.Wait()
	if err := d.g.X.Err(); err != nil {
		return err
	}
	for par := 0; par < 2; par++ {
		if err := d.flushChecksum(par); err != nil {
			return err
		}
	}
	return nil
}

// refine runs the taskified refinement phase after draining in-flight
// work (quiesce is idempotent; the runner already calls it outside the
// refinement clock).
func (d *dataFlowDriver) refine(advance bool) (bool, error) {
	s := d.s
	if err := d.quiesce(); err != nil {
		return false, err
	}
	if advance {
		s.advanceObjects()
	}
	if s.cfg.SequentialRefinement {
		// Ablation: run the whole refinement phase serially, as before the
		// paper's Section IV-B taskification.
		return s.refineEpoch(s.sequentialRefineExec())
	}
	return s.refineEpoch(refineExec{
		splitOwned:       d.splitOwned,
		consolidateOwned: d.consolidateOwned,
		mover:            &taskMover{d: d},
	})
}

// splitOwned taskifies the block-splitting copies.
func (d *dataFlowDriver) splitOwned(refines []mesh.Coord) error {
	s := d.s
	children := make([][8]*grid.Data, len(refines))
	for i, bc := range refines {
		for o := 0; o < 8; o++ {
			children[i][o] = s.newBlockData(bc.Child(o), false)
		}
		parent := s.data[bc]
		ch := &children[i]
		d.g.Spawn("split", func(t *task.Task) {
			s.rec.Span(s.rank, t.Worker(), "split", func() { parent.SplitInto(ch) })
		})
	}
	d.g.Wait()
	for i, bc := range refines {
		s.releaseBlock(s.data[bc])
		delete(s.data, bc)
		for o := 0; o < 8; o++ {
			s.data[bc.Child(o)] = children[i][o]
		}
	}
	return nil
}

// consolidateOwned taskifies the coarsening copies.
func (d *dataFlowDriver) consolidateOwned(parents []mesh.Coord) error {
	s := d.s
	newParents := make([]*grid.Data, len(parents))
	for i, p := range parents {
		var ch [8]*grid.Data
		for o := 0; o < 8; o++ {
			c, ok := s.data[p.Child(o)]
			if !ok {
				return fmt.Errorf("app: consolidation of %v: child %d not local", p, o)
			}
			ch[o] = c
		}
		newParents[i] = s.newBlockData(p, false)
		parent := newParents[i]
		d.g.Spawn("consolidate", func(t *task.Task) {
			s.rec.Span(s.rank, t.Worker(), "consolidate", func() { parent.ConsolidateFrom(&ch) })
		})
	}
	d.g.Wait()
	for i, p := range parents {
		for o := 0; o < 8; o++ {
			s.releaseBlock(s.data[p.Child(o)])
			delete(s.data, p.Child(o))
		}
		s.data[p] = newParents[i]
	}
	return nil
}

// drain completes the run: wait out the graph and settle pending delayed
// checksums.
func (d *dataFlowDriver) drain() error {
	d.g.Wait()
	for par := 0; par < 2; par++ {
		if err := d.flushChecksum(par); err != nil {
			return err
		}
	}
	return d.g.X.Err()
}

// taskMover transfers whole blocks for the refinement exchange with
// taskified packing, TAMPI sends/receives and unpacking, while the control
// messages stay on the main goroutine (the paper's Section IV-B design).
type taskMover struct {
	d *dataFlowDriver
}

// sendBlock is anchored directly: the exchange protocol reaches it only
// through the blockMover interface, which static extraction cannot see
// through.
func (m *taskMover) sendBlock(bc mesh.Coord, blk *grid.Data, to, tag int) {
	d := m.d
	s := d.s
	lease := s.arena.LeaseFloat64(blk.InteriorLen())
	key := xferKey{tag: tag}
	d.g.Spawn("exchange-pack", func(t *task.Task) {
		d.g.NoteWrite(t, key)
		s.rec.Span(s.rank, t.Worker(), "exchange-pack", func() { blk.PackInterior(lease.Float64()) })
	}, task.Out(key)...)
	d.g.Spawn("exchange-send", func(t *task.Task) {
		d.g.NoteRead(t, key)
		if err := d.g.X.IsendOwned(t, lease, to, tag); err != nil {
			panic(err)
		}
	}, task.In(key)...)
}

func (m *taskMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	d := m.d
	s := d.s
	blk := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(blk.InteriorLen())
	key := xferKey{tag: tag, recv: true}
	d.g.Spawn("exchange-recv", func(t *task.Task) {
		d.g.NoteWrite(t, key)
		if err := d.g.X.Irecv(t, buf, from, tag); err != nil {
			panic(err)
		}
	}, task.Out(key)...)
	d.g.Spawn("exchange-unpack", func(t *task.Task) {
		d.g.NoteRead(t, key)
		s.rec.Span(s.rank, t.Worker(), "exchange-unpack", func() { blk.UnpackInterior(buf) })
		s.arena.PutFloat64(buf)
	}, task.In(key)...)
	return blk
}

func (m *taskMover) barrier() error {
	m.d.g.Wait()
	return m.d.g.X.Err()
}
