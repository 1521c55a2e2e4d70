package app

import (
	"fmt"
	"time"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/trace"
)

// RunMPIOnly executes the simulation with the reference MPI-only strategy:
// one single-threaded rank per core, non-blocking sends and receives per
// direction, Waitany-driven unpacking, serial refinement and exchange
// (Algorithm 1/2 of the paper).
func RunMPIOnly(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s, err := newState(&cfg, c, rec, 1) // one aggregated message per peer and direction
	if err != nil {
		return Result{}, err
	}
	d := &mpiOnlyDriver{s: s, eng: driver.NewSerialEngine(s.arena, scratchLen(&cfg))}
	res, err := runMain(s, d)
	if err != nil {
		return Result{}, err
	}
	d.eng.Close()
	s.close()
	return res, nil
}

// scratchLen sizes a staging buffer for the largest cross-level local copy.
func scratchLen(cfg *Config) int {
	mx := cfg.BlockSize.Y * cfg.BlockSize.Z
	if n := cfg.BlockSize.X * cfg.BlockSize.Z; n > mx {
		mx = n
	}
	if n := cfg.BlockSize.X * cfg.BlockSize.Y; n > mx {
		mx = n
	}
	return mx * cfg.CommVars
}

type mpiOnlyDriver struct {
	s *state
	// eng owns the reused per-stage communication state (waitset, send
	// list, scratch): the hot path must not allocate.
	eng *driver.SerialEngine
}

func (d *mpiOnlyDriver) communicate(g0, g1 int) error {
	s := d.s
	gv := g1 - g0
	ws := d.eng.Wait()
	scratch := d.eng.Scratch()
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		sched := s.scheds[dir]

		// Start receiving the required faces from every remote neighbour.
		// The waitset index of each request is its plan index.
		ws.Reset()
		for i := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][i]
			req, err := s.comm.Irecv(s.recvBufs[dir].Buf(i)[:pl.cells*gv], pl.peer, pl.tag)
			if err != nil {
				return err
			}
			ws.Add(req)
		}

		// Pack each outgoing face bundle into a fresh arena lease and send
		// it with ownership transfer: the receiving rank returns the buffer
		// to the arena after unpacking.
		for i := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][i]
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			start := time.Now()
			comm.PackMessage(pl.msg, s.blockAt, g0, g1, lease.Float64())
			s.rec.Record(s.rank, 0, "pack", start, time.Now())
			req, err := s.comm.IsendOwned(lease, pl.peer, pl.tag)
			if err != nil {
				// This lease is still ours; earlier sends are in flight
				// and must settle before their buffers die.
				lease.Release()
				d.eng.FlushSends()
				return err
			}
			d.eng.TrackSend(req)
		}

		// Intra-process exchanges overlap the in-flight MPI transfers.
		start := time.Now()
		for _, tr := range sched.Local {
			comm.ExecuteLocal(tr, s.data[tr.Src], s.data[tr.Recv], g0, g1, scratch)
		}
		for _, bf := range sched.Boundary {
			s.data[bf.Block].ApplyDomainBoundary(dir, bf.Side, g0, g1)
		}
		s.rec.Record(s.rank, 0, "local-copy", start, time.Now())

		// Unpack faces as they arrive.
		for remaining := ws.Len(); remaining > 0; remaining-- {
			wstart := time.Now()
			idx, _, werr := ws.Next()
			s.rec.Record(s.rank, 0, "MPI_Waitany", wstart, time.Now())
			if werr != nil {
				return werr
			}
			pl := &s.recvPlans[dir][idx]
			ustart := time.Now()
			comm.UnpackMessage(pl.msg, s.blockAt, g0, g1, s.recvBufs[dir].Buf(idx)[:pl.cells*gv])
			s.rec.Record(s.rank, 0, "unpack", ustart, time.Now())
		}

		// Wait until all sends complete before reusing the direction's
		// buffers, as the reference does; the engine recycles the requests.
		if err := d.eng.FlushSends(); err != nil {
			return err
		}
	}
	return nil
}

func (d *mpiOnlyDriver) stencil(g0, g1 int) error {
	s := d.s
	for _, bc := range s.owned() {
		blk := s.data[bc]
		s.rec.Span(s.rank, 0, "stencil", func() { s.runStencil(blk, g0, g1) })
		s.flops += s.stencilFlops(blk, g0, g1)
	}
	return nil
}

func (d *mpiOnlyDriver) checksum() error {
	s := d.s
	owned := s.owned()
	perBlock := make(map[mesh.Coord][]float64, len(owned))
	s.rec.Span(s.rank, 0, "cksum-local", func() {
		for _, bc := range owned {
			sums := s.arena.GetFloat64(s.cfg.Vars) // Checksum overwrites it
			s.data[bc].Checksum(0, s.cfg.Vars, sums)
			perBlock[bc] = sums
		}
	})
	local := s.combineBlockSums(owned, perBlock)
	for _, bc := range owned {
		s.arena.PutFloat64(perBlock[bc])
	}
	return s.reduceAndValidate(local)
}

func (d *mpiOnlyDriver) refine(advance bool) (bool, error) {
	s := d.s
	if advance {
		s.advanceObjects()
	}
	return s.refineEpoch(s.sequentialRefineExec())
}

// sequentialRefineExec is the serial refinement execution shared by the
// MPI-only driver and the data-flow SequentialRefinement ablation.
func (s *state) sequentialRefineExec() refineExec {
	return refineExec{
		splitOwned:       s.splitOwnedSeq,
		consolidateOwned: s.consolidateOwnedSeq,
		mover:            &syncMover{s: s},
	}
}

func (s *state) splitOwnedSeq(refines []mesh.Coord) error {
	for _, bc := range refines {
		parent := s.data[bc]
		var children [8]*grid.Data
		for o := range children {
			children[o] = s.newBlockData(bc.Child(o), false)
		}
		s.rec.Span(s.rank, 0, "split", func() { parent.SplitInto(&children) })
		s.releaseBlock(parent)
		delete(s.data, bc)
		for o, ch := range children {
			s.data[bc.Child(o)] = ch
		}
	}
	return nil
}

func (s *state) consolidateOwnedSeq(parents []mesh.Coord) error {
	for _, p := range parents {
		var children [8]*grid.Data
		for o := range children {
			ch, ok := s.data[p.Child(o)]
			if !ok {
				return fmt.Errorf("app: consolidation of %v: child %d not local", p, o)
			}
			children[o] = ch
		}
		parent := s.newBlockData(p, false)
		s.rec.Span(s.rank, 0, "consolidate", func() { parent.ConsolidateFrom(&children) })
		for o := 0; o < 8; o++ {
			s.releaseBlock(children[o])
			delete(s.data, p.Child(o))
		}
		s.data[p] = parent
	}
	return nil
}

func (d *mpiOnlyDriver) drain() error { return nil }

// syncMover transfers block payloads inline with blocking operations — the
// reference behaviour where the single thread performs the whole exchange.
type syncMover struct {
	s *state
}

func (m *syncMover) sendBlock(bc mesh.Coord, d *grid.Data, to, tag int) {
	s := m.s
	lease := s.arena.LeaseFloat64(d.InteriorLen())
	s.rec.Span(s.rank, 0, "exchange-pack", func() { d.PackInterior(lease.Float64()) })
	start := time.Now()
	if err := s.comm.SendOwned(lease, to, tag); err != nil {
		panic(err) // protocol code has verified arguments; transport errors are fatal here
	}
	s.rec.Record(s.rank, 0, "exchange-send", start, time.Now())
}

func (m *syncMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	s := m.s
	d := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(d.InteriorLen())
	start := time.Now()
	if _, err := s.comm.Recv(buf, from, tag); err != nil {
		panic(err)
	}
	s.rec.Record(s.rank, 0, "exchange-recv", start, time.Now())
	s.rec.Span(s.rank, 0, "exchange-unpack", func() { d.UnpackInterior(buf) })
	s.arena.PutFloat64(buf)
	return d
}

func (m *syncMover) barrier() error { return nil }

// quiesce is a no-op: the MPI-only driver has no asynchronous stage work.
func (d *mpiOnlyDriver) quiesce() error { return nil }
