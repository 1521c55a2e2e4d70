package hydro

import (
	"time"

	"miniamr/internal/driver"
	"miniamr/internal/task"
)

// Dependency keys of HYDRO's data-flow taskification. Dependencies are
// declared per tile and per communication buffer section, the same
// granularity the paper uses for miniAMR's blocks.
type (
	// tileKey is one tile's interior conserved state; it persists across
	// timesteps, chaining sweep -> pack/local-copy -> sweep across stages.
	tileKey struct {
		t int
	}
	// ghostKey is one ghost edge of a tile (side 0 = low edge), filled
	// by a local copy or an unpack and read by the tile's sweep in that
	// direction. Ghost edges and the interior are disjoint, so fills of
	// one tile's two edges, and copies reading a tile whose own ghosts
	// are being filled, need not serialise.
	ghostKey struct {
		t, dir, side int
	}
	// sectKey is one segment's section of a message buffer. dirKey is
	// the direction+1, or 0 when buffer sections share one key space
	// across directions (reproducing the false dependencies that
	// separate buffers remove). Sections are per-stage: produced,
	// consumed once, recycled.
	sectKey struct {
		dirKey int
		peer   int
		send   bool
		idx    int
	}
	// waveKey is a tile's CFL wave-speed contribution slot, written once
	// per timestep and drained by the reduction's taskwait.
	waveKey struct {
		t int
	}
	// sumKey is a tile's checksum accumulator slot, written once per
	// checksum stage and drained by the validation's taskwait.
	sumKey struct {
		t int
	}
)

// dfDriver is the paper's hybrid data-flow stage set: every phase is
// taskified, tasks connect through data dependencies, and MPI operations
// are issued from tasks through the task-aware MPI layer.
type dfDriver struct {
	s *state
	// g owns the task runtime, the task-aware MPI context, the per-worker
	// scratch buffers and the sanitizer/trace plumbing.
	g *driver.GraphEngine
}

// dirKey folds the direction into buffer keys, or collapses both
// directions onto one key space when buffers are shared.
func (d *dfDriver) dirKey(dir int) int {
	if d.s.cfg.SeparateBuffers {
		return dir + 1
	}
	return 0
}

// BeginStep taskifies the CFL scan — one task per tile feeding a
// wave-speed slot — then closes the reduction with a taskwait on the
// slots and the global max on the main goroutine. The taskwait
// transitively drains every tile writer of the previous stage, so the
// following s.dt update never races a sweep.
func (d *dfDriver) BeginStep(ts int) error {
	s := d.s
	waves := make([]float64, len(s.tiles))
	keys := make([]any, len(s.tiles))
	for i, t := range s.tiles {
		i, t := i, t
		u := s.data[t]
		keys[i] = waveKey{t: t}
		d.g.Spawn("cfl-scan", func(tk *task.Task) {
			d.g.NoteRead(tk, tileKey{t: t})
			d.g.NoteWrite(tk, waveKey{t: t})
			s.rec.Span(s.rank, tk.Worker(), "cfl-scan", func() {
				waves[i] = s.maxWave(u)
			})
		}, task.Merge(task.In(tileKey{t: t}), task.Out(waveKey{t: t}))...)
		s.flops += s.waveFlops()
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	wave := 0.0
	for _, wv := range waves {
		if wv > wave {
			wave = wv
		}
	}
	return s.reduceWave(wave)
}

// Communicate taskifies the ghost exchange: a receive task per message
// binding the request, pack tasks per segment, send tasks with
// multidependencies on the packed sections, local copy tasks, and unpack
// tasks fed by the receive's buffer sections.
func (d *dfDriver) Communicate(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	gv := g1 - g0
	dk := d.dirKey(dir)
	// Section keys may alternate between the two directions' slabs when
	// buffers are shared; aliasing is only meaningful within one stage
	// (with the sanitizer off this is a nil check).
	d.g.ResetBindings()

	// Pending unpack work, spawned only after all pack tasks: packers
	// must depend solely on the previous stage's sweeps, never on this
	// stage's arrivals, or two ranks exchanging edges would wait on each
	// other.
	type unpackJob struct {
		sg  seg
		sec []float64
		key sectKey
	}
	var unpacks []unpackJob

	// Receives: one task per incoming message; its completion is bound
	// to the MPI request, so unpackers run only once the data arrived.
	for pi := range s.plans[dir].RecvPlans {
		pl := &s.plans[dir].RecvPlans[pi]
		peer, tag, segs := pl.Peer, pl.Tag, pl.Segs
		buf := s.plans[dir].RecvBuf(pi)[:pl.Cells*gv]
		secs := make([]any, len(segs))
		for i := range segs {
			secs[i] = sectKey{dirKey: dk, peer: peer, idx: i}
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

		for i, sg := range segs {
			sec := s.segBuf(dir, buf, i)
			d.g.BindSection(secs[i], sec)
			unpacks = append(unpacks, unpackJob{sg: sg, sec: sec, key: secs[i].(sectKey)})
		}
	}

	// Sends: the message buffer is a fresh arena lease; pack tasks per
	// segment write their section of it, one send task per message
	// depends on all the sections and transfers the lease to the MPI
	// layer (the receiving rank returns it to the arena).
	for pi := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[pi]
		peer, tag, segs := pl.Peer, pl.Tag, pl.Segs
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		buf := lease.Float64()
		secs := make([]any, len(segs))
		for i := range segs {
			secs[i] = sectKey{dirKey: dk, peer: peer, send: true, idx: i}
		}
		for i, sg := range segs {
			sg := sg
			sec := s.segBuf(dir, buf, i)
			secKey := secs[i]
			d.g.Spawn("pack", func(t *task.Task) {
				d.g.NoteRead(t, tileKey{t: sg.Tile})
				d.g.NoteWrite(t, secKey)
				s.rec.Span(s.rank, t.Worker(), "pack", func() {
					s.packSeg(dir, sg, sec)
				})
			}, task.Merge(
				task.In(tileKey{t: sg.Tile}),
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

	// Same-rank copies: edge exchange tasks between neighbouring tiles.
	for _, lc := range s.locals[dir] {
		lc := lc
		ghost := ghostKey{t: lc.dst, dir: dir, side: 1 - lc.srcSide}
		d.g.Spawn("local-copy", func(t *task.Task) {
			d.g.NoteRead(t, tileKey{t: lc.src})
			d.g.NoteWrite(t, ghost)
			s.rec.Span(s.rank, t.Worker(), "local-copy", func() {
				s.copyLocal(dir, lc)
			})
		}, task.Merge(
			task.In(tileKey{t: lc.src}),
			task.Out(ghost),
		)...)
	}

	// Unpackers: consume the receive's buffer sections into tile ghosts
	// once the bound requests complete.
	for _, uj := range unpacks {
		uj := uj
		ghost := ghostKey{t: uj.sg.Tile, dir: dir, side: uj.sg.Side}
		d.g.Spawn("unpack", func(t *task.Task) {
			d.g.NoteRead(t, uj.key)
			d.g.NoteWrite(t, ghost)
			s.rec.Span(s.rank, t.Worker(), "unpack", func() {
				s.unpackSeg(dir, uj.sg, uj.sec)
			})
		}, task.Merge(
			task.In(uj.key),
			task.Out(ghost),
		)...)
	}
	return d.g.X.Err()
}

// Compute spawns one sweep task per tile, depending in-out on the tile's
// interior and in on its two ghost edges of the direction, so it follows
// the ghost fills.
func (d *dfDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	for _, t := range s.tiles {
		t := t
		u := s.data[t]
		lo, hi := ghostKey{t: t, dir: dir, side: 0}, ghostKey{t: t, dir: dir, side: 1}
		d.g.Spawn("sweep", func(tk *task.Task) {
			d.g.NoteRead(tk, lo)
			d.g.NoteRead(tk, hi)
			d.g.NoteWrite(tk, tileKey{t: t})
			s.rec.Span(s.rank, tk.Worker(), "sweep", func() {
				s.sweep(dir, u, d.g.Scratch(tk.Worker()))
			})
		}, task.Merge(task.InOut(tileKey{t: t}), task.In(lo, hi))...)
		s.flops += s.sweepFlops(dir)
	}
	return nil
}

// Checksum spawns per-tile reduction tasks into sum slots, closes them
// with a taskwait with dependencies, and validates the global reduction
// on the main goroutine.
func (d *dfDriver) Checksum(int) error {
	s := d.s
	perTile := make(map[int][]float64, len(s.tiles))
	keys := make([]any, len(s.tiles))
	for i, t := range s.tiles {
		t := t
		slot := s.arena.GetFloat64(hydroVars) // tileSums overwrites it
		perTile[t] = slot
		u := s.data[t]
		keys[i] = sumKey{t: t}
		d.g.Spawn("cksum-local", func(tk *task.Task) {
			d.g.NoteRead(tk, tileKey{t: t})
			d.g.NoteWrite(tk, sumKey{t: t})
			s.rec.Span(s.rank, tk.Worker(), "cksum-local", func() {
				s.tileSums(u, slot)
			})
		}, task.Merge(task.In(tileKey{t: t}), task.Out(sumKey{t: t}))...)
	}
	d.g.WaitKeys(keys...)
	if err := d.g.X.Err(); err != nil {
		return err
	}
	local := driver.CombineSums(s.arena, hydroVars, s.tiles, perTile)
	for _, t := range s.tiles {
		s.arena.PutFloat64(perTile[t])
	}
	return s.reduceAndValidate(local)
}

// Quiesce closes the parallelism (an explicit taskwait).
func (d *dfDriver) Quiesce() error {
	d.g.Wait()
	return d.g.X.Err()
}

func (d *dfDriver) Refine(bool) (bool, error) { return false, nil }

// Drain completes the run: wait out the graph and surface any deferred
// communication error.
func (d *dfDriver) Drain() error {
	d.g.Wait()
	return d.g.X.Err()
}
