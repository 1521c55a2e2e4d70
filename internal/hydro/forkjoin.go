package hydro

import (
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
)

// fjDriver is the hybrid MPI+OpenMP fork-join stage set: sweeps, packing,
// unpacking, local copies and checksum reductions run in parallel loops
// while all MPI communication stays on the master thread.
type fjDriver struct {
	s *state
	// eng owns the worker pool, the per-worker scratch buffers and arena
	// caches, and the master thread's reused waitset.
	eng *driver.ForkJoinEngine
}

// parFor dispatches a parallel loop with the engine's schedule.
func (d *fjDriver) parFor(n int, body func(i, w int)) {
	d.eng.ParFor(n, body)
}

// BeginStep scans the owned tiles for the maximum wave speed in parallel
// and resolves the CFL timestep on the master. A maximum is
// order-independent, so the parallel fold stays bit-deterministic.
func (d *fjDriver) BeginStep(ts int) error {
	s := d.s
	waves := make([]float64, len(s.tiles))
	d.parFor(len(s.tiles), func(i, w int) {
		s.rec.Span(s.rank, w, "cfl-scan", func() {
			waves[i] = s.maxWave(s.data[s.tiles[i]])
		})
	})
	wave := 0.0
	for _, wv := range waves {
		if wv > wave {
			wave = wv
		}
		s.flops += s.waveFlops()
	}
	return s.reduceWave(wave)
}

// Communicate exchanges the stage direction's ghost edges: the master
// posts receives and sends, parallel regions pack, copy and unpack.
func (d *fjDriver) Communicate(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	gv := g1 - g0
	ws := d.eng.Wait()

	ws.Reset()
	for i := range s.plans[dir].RecvPlans {
		pl := &s.plans[dir].RecvPlans[i]
		req, err := s.comm.Irecv(s.plans[dir].RecvBuf(i)[:pl.Cells*gv], pl.Peer, pl.Tag)
		if err != nil {
			return err
		}
		ws.Add(req)
	}

	// Parallel region: pack every outgoing segment (flat index space
	// across peers) into fresh arena leases, then master sends them with
	// ownership transfer.
	type packJob struct {
		sg  seg
		dst []float64
	}
	var jobs []packJob
	type sendMsg struct {
		peer  int
		tag   int
		lease *membuf.Lease
	}
	var sends []sendMsg
	for i := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[i]
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		buf := lease.Float64()
		for si, sg := range pl.Segs {
			jobs = append(jobs, packJob{sg: sg, dst: s.segBuf(dir, buf, si)})
		}
		sends = append(sends, sendMsg{peer: pl.Peer, tag: pl.Tag, lease: lease})
	}
	d.parFor(len(jobs), func(i, w int) {
		job := jobs[i]
		s.rec.Span(s.rank, w, "pack", func() { s.packSeg(dir, job.sg, job.dst) })
	})
	var sendReqs []*mpi.Request
	for si, sm := range sends {
		req, err := s.comm.IsendOwned(sm.lease, sm.peer, sm.tag)
		if err != nil {
			// The failed and the not-yet-sent leases are still ours;
			// in-flight sends must settle before their buffers die.
			for _, rest := range sends[si:] {
				rest.lease.Release()
			}
			mpi.Waitall(sendReqs)
			return err
		}
		sendReqs = append(sendReqs, req)
	}

	// Parallel same-rank copies: distinct copies write distinct ghost
	// edges, so the loop is race-free.
	d.parFor(len(s.locals[dir]), func(i, w int) {
		lc := s.locals[dir][i]
		s.rec.Span(s.rank, w, "local-copy", func() { s.copyLocal(dir, lc) })
	})

	// Master waits for arrivals; each message unpacks in parallel.
	for remaining := ws.Len(); remaining > 0; remaining-- {
		var idx int
		var werr error
		s.rec.Span(s.rank, 0, "MPI_Waitany", func() {
			idx, _, werr = ws.Next()
		})
		if werr != nil {
			return werr
		}
		pl := &s.plans[dir].RecvPlans[idx]
		buf := s.plans[dir].RecvBuf(idx)
		d.parFor(len(pl.Segs), func(i, w int) {
			s.rec.Span(s.rank, w, "unpack", func() {
				s.unpackSeg(dir, pl.Segs[i], s.segBuf(dir, buf, i))
			})
		})
	}
	if err := mpi.Waitall(sendReqs); err != nil {
		return err
	}
	for _, req := range sendReqs {
		req.Free()
	}
	return nil
}

// Compute sweeps the owned tiles in parallel; tiles only touch their own
// storage, so the loop is race-free.
func (d *fjDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	d.parFor(len(s.tiles), func(i, w int) {
		u := s.data[s.tiles[i]]
		s.rec.Span(s.rank, w, "sweep", func() { s.sweep(dir, u, d.eng.Scratch(w)) })
	})
	for range s.tiles {
		s.flops += s.sweepFlops(dir)
	}
	return nil
}

// Checksum reduces per-tile sums in parallel and combines them in tile
// order on the master.
func (d *fjDriver) Checksum(int) error {
	s := d.s
	sums := make([][]float64, len(s.tiles))
	d.parFor(len(s.tiles), func(i, w int) {
		out := d.eng.Cache(w).GetFloat64(hydroVars) // tileSums overwrites it
		s.rec.Span(s.rank, w, "cksum-local", func() { s.tileSums(s.data[s.tiles[i]], out) })
		sums[i] = out
	})
	perTile := make(map[int][]float64, len(s.tiles))
	for i, t := range s.tiles {
		perTile[t] = sums[i]
	}
	local := driver.CombineSums(s.arena, hydroVars, s.tiles, perTile)
	for _, out := range sums {
		s.arena.PutFloat64(out)
	}
	return s.reduceAndValidate(local)
}

// Quiesce is a no-op: parallel regions end with an implicit barrier.
func (d *fjDriver) Quiesce() error { return nil }

func (d *fjDriver) Refine(bool) (bool, error) { return false, nil }

func (d *fjDriver) Drain() error { return nil }
