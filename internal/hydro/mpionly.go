package hydro

import (
	"time"

	"miniamr/internal/driver"
)

// serialDriver is the reference MPI-only stage set: one single-threaded
// rank per core, non-blocking sends and receives with Waitany-driven
// unpacking, exactly the shape of miniAMR's reference variant.
type serialDriver struct {
	s *state
	// eng owns the reused per-stage communication state (waitset, send
	// list, scratch): the hot path must not allocate.
	eng *driver.SerialEngine
}

// BeginStep resolves the step's CFL timestep: a serial scan of the owned
// tiles and a global max reduction.
func (d *serialDriver) BeginStep(ts int) error {
	s := d.s
	wave := 0.0
	start := time.Now()
	for _, t := range s.tiles {
		if w := s.maxWave(s.data[t]); w > wave {
			wave = w
		}
		s.flops += s.waveFlops()
	}
	s.rec.Record(s.rank, 0, "cfl-scan", start, time.Now())
	return s.reduceWave(wave)
}

// Communicate exchanges the stage direction's ghost edges: post all
// receives, pack and send every outgoing message with ownership
// transfer, overlap the same-rank copies, then unpack arrivals in
// completion order.
func (d *serialDriver) Communicate(stage, g0, g1 int) error {
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

	for i := range s.plans[dir].SendPlans {
		pl := &s.plans[dir].SendPlans[i]
		lease := s.arena.LeaseFloat64(pl.Cells * gv)
		start := time.Now()
		s.packMessage(dir, pl.Segs, lease.Float64())
		s.rec.Record(s.rank, 0, "pack", start, time.Now())
		req, err := s.comm.IsendOwned(lease, pl.Peer, pl.Tag)
		if err != nil {
			// This lease is still ours; earlier sends are in flight and
			// must settle before their buffers die.
			lease.Release()
			d.eng.FlushSends()
			return err
		}
		d.eng.TrackSend(req)
	}

	start := time.Now()
	for _, lc := range s.locals[dir] {
		s.copyLocal(dir, lc)
	}
	s.rec.Record(s.rank, 0, "local-copy", start, time.Now())

	for remaining := ws.Len(); remaining > 0; remaining-- {
		wstart := time.Now()
		idx, _, werr := ws.Next()
		s.rec.Record(s.rank, 0, "MPI_Waitany", wstart, time.Now())
		if werr != nil {
			return werr
		}
		pl := &s.plans[dir].RecvPlans[idx]
		ustart := time.Now()
		s.unpackMessage(dir, pl.Segs, s.plans[dir].RecvBuf(idx)[:pl.Cells*gv])
		s.rec.Record(s.rank, 0, "unpack", ustart, time.Now())
	}

	return d.eng.FlushSends()
}

// Compute runs the stage direction's Godunov sweep over the owned tiles.
func (d *serialDriver) Compute(stage, g0, g1 int) error {
	s := d.s
	dir := stage - 1
	flux := d.eng.Scratch()
	for _, t := range s.tiles {
		u := s.data[t]
		s.rec.Span(s.rank, 0, "sweep", func() { s.sweep(dir, u, flux) })
		s.flops += s.sweepFlops(dir)
	}
	return nil
}

// Checksum reduces the conserved sums per tile, folds them in tile order
// and validates the global result.
func (d *serialDriver) Checksum(int) error {
	s := d.s
	perTile := make(map[int][]float64, len(s.tiles))
	s.rec.Span(s.rank, 0, "cksum-local", func() {
		for _, t := range s.tiles {
			sums := s.arena.GetFloat64(hydroVars) // tileSums overwrites it
			s.tileSums(s.data[t], sums)
			perTile[t] = sums
		}
	})
	local := driver.CombineSums(s.arena, hydroVars, s.tiles, perTile)
	for _, t := range s.tiles {
		s.arena.PutFloat64(perTile[t])
	}
	return s.reduceAndValidate(local)
}

// Quiesce is a no-op: the serial driver has no asynchronous stage work.
func (d *serialDriver) Quiesce() error { return nil }

// Refine is a no-op: HYDRO's mesh is fixed.
func (d *serialDriver) Refine(bool) (bool, error) { return false, nil }

func (d *serialDriver) Drain() error { return nil }
