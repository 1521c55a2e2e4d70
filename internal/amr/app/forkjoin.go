package app

import (
	"fmt"
	"time"

	"miniamr/internal/amr/comm"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/mesh"
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/trace"
)

// RunForkJoin executes the simulation with the hybrid MPI+OpenMP fork-join
// strategy of the paper's comparison variant: stencil, packing/unpacking,
// intra-process copies, local checksum reduction and block
// splitting/consolidation run in parallel loops with static scheduling,
// while all MPI communication stays on the master thread.
func RunForkJoin(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s, err := newState(&cfg, c, rec, 1)
	if err != nil {
		return Result{}, err
	}
	eng := driver.NewForkJoinEngine(s.arena, cfg.Workers, scratchLen(&cfg),
		cfg.ForkJoinSchedule == "dynamic")
	defer eng.ClosePool()
	d := &forkJoinDriver{s: s, eng: eng}
	res, err := runMain(s, d)
	if err != nil {
		return Result{}, err
	}
	eng.Close()
	s.close()
	return res, nil
}

type forkJoinDriver struct {
	s *state
	// eng owns the worker pool, the per-worker scratch buffers and arena
	// caches, and the master thread's reused waitset.
	eng *driver.ForkJoinEngine
}

// parFor dispatches a parallel loop with the configured schedule.
func (d *forkJoinDriver) parFor(n int, body func(i, w int)) {
	d.eng.ParFor(n, body)
}

func (d *forkJoinDriver) communicate(g0, g1 int) error {
	s := d.s
	gv := g1 - g0
	ws := d.eng.Wait()
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		sched := s.scheds[dir]

		// Master posts all receives; the waitset index of each request is
		// its plan index.
		ws.Reset()
		for i := range s.recvPlans[dir] {
			pl := &s.recvPlans[dir][i]
			req, err := s.comm.Irecv(s.recvBufs[dir].Buf(i)[:pl.cells*gv], pl.peer, pl.tag)
			if err != nil {
				return err
			}
			ws.Add(req)
		}

		// Parallel region: pack every outgoing transfer (flat index space
		// across peers and messages) into fresh arena leases, then master
		// sends them with ownership transfer.
		type packJob struct {
			tr  comm.Transfer
			dst []float64
		}
		var jobs []packJob
		type sendMsg struct {
			peer  int
			tag   int
			lease *membuf.Lease
		}
		var sends []sendMsg
		for i := range s.sendPlans[dir] {
			pl := &s.sendPlans[dir][i]
			lease := s.arena.LeaseFloat64(pl.cells * gv)
			buf := lease.Float64()
			off := 0
			for _, tr := range pl.msg {
				jobs = append(jobs, packJob{tr: tr, dst: buf[off : off+tr.Len(gv)]})
				off += tr.Len(gv)
			}
			sends = append(sends, sendMsg{peer: pl.peer, tag: pl.tag, lease: lease})
		}
		d.parFor(len(jobs), func(i, w int) {
			job := jobs[i]
			s.rec.Span(s.rank, w, "pack", func() {
				comm.Pack(job.tr, s.data[job.tr.Src], g0, g1, job.dst)
			})
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

		// Parallel intra-process copies and boundary conditions. Distinct
		// transfers write distinct ghost cells, so the loop is race-free.
		d.parFor(len(sched.Local), func(i, w int) {
			tr := sched.Local[i]
			s.rec.Span(s.rank, w, "local-copy", func() {
				comm.ExecuteLocal(tr, s.data[tr.Src], s.data[tr.Recv], g0, g1, d.eng.Scratch(w))
			})
		})
		d.eng.For(len(sched.Boundary), func(i int) {
			bf := sched.Boundary[i]
			s.data[bf.Block].ApplyDomainBoundary(dir, bf.Side, g0, g1)
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
			pl := &s.recvPlans[dir][idx]
			msg, buf := pl.msg, s.recvBufs[dir].Buf(idx)
			offs := make([]int, len(msg))
			off := 0
			for i, tr := range msg {
				offs[i] = off
				off += tr.Len(gv)
			}
			d.parFor(len(msg), func(i, w int) {
				tr := msg[i]
				s.rec.Span(s.rank, w, "unpack", func() {
					comm.Unpack(tr, s.data[tr.Recv], g0, g1, buf[offs[i]:offs[i]+tr.Len(gv)])
				})
			})
		}
		if err := mpi.Waitall(sendReqs); err != nil {
			return err
		}
		for _, req := range sendReqs {
			req.Free()
		}
	}
	return nil
}

func (d *forkJoinDriver) stencil(g0, g1 int) error {
	s := d.s
	owned := s.owned()
	d.parFor(len(owned), func(i, w int) {
		blk := s.data[owned[i]]
		s.rec.Span(s.rank, w, "stencil", func() { s.runStencil(blk, g0, g1) })
	})
	for _, bc := range owned {
		s.flops += s.stencilFlops(s.data[bc], g0, g1)
	}
	return nil
}

func (d *forkJoinDriver) checksum() error {
	s := d.s
	owned := s.owned()
	sums := make([][]float64, len(owned))
	d.parFor(len(owned), func(i, w int) {
		out := d.eng.Cache(w).GetFloat64(s.cfg.Vars) // Checksum overwrites it
		blk := s.data[owned[i]]
		s.rec.Span(s.rank, w, "cksum-local", func() { blk.Checksum(0, s.cfg.Vars, out) })
		sums[i] = out
	})
	// Deterministic combine in block order on the master.
	perBlock := make(map[mesh.Coord][]float64, len(owned))
	for i, bc := range owned {
		perBlock[bc] = sums[i]
	}
	local := s.combineBlockSums(owned, perBlock)
	for _, out := range sums {
		s.arena.PutFloat64(out)
	}
	return s.reduceAndValidate(local)
}

func (d *forkJoinDriver) refine(advance bool) (bool, error) {
	s := d.s
	if advance {
		s.advanceObjects()
	}
	return s.refineEpoch(refineExec{
		splitOwned:       d.splitOwned,
		consolidateOwned: d.consolidateOwned,
		mover:            &forkJoinMover{d: d},
	})
}

// splitOwned parallelises the per-block child copies (the paper extends
// the fork-join variant with exactly this for a fair comparison).
func (d *forkJoinDriver) splitOwned(refines []mesh.Coord) error {
	s := d.s
	children := make([][8]*grid.Data, len(refines))
	for i, bc := range refines {
		for o := 0; o < 8; o++ {
			children[i][o] = s.newBlockData(bc.Child(o), false)
		}
	}
	d.parFor(len(refines), func(i, w int) {
		parent := s.data[refines[i]]
		s.rec.Span(s.rank, w, "split", func() { parent.SplitInto(&children[i]) })
	})
	for i, bc := range refines {
		s.releaseBlock(s.data[bc])
		delete(s.data, bc)
		for o := 0; o < 8; o++ {
			s.data[bc.Child(o)] = children[i][o]
		}
	}
	return nil
}

func (d *forkJoinDriver) consolidateOwned(parents []mesh.Coord) error {
	s := d.s
	type job struct {
		parent   *grid.Data
		children [8]*grid.Data
	}
	jobs := make([]job, len(parents))
	for i, p := range parents {
		jobs[i].parent = s.newBlockData(p, false)
		for o := 0; o < 8; o++ {
			ch, ok := s.data[p.Child(o)]
			if !ok {
				return fmt.Errorf("app: consolidation of %v: child %d not local", p, o)
			}
			jobs[i].children[o] = ch
		}
	}
	d.parFor(len(jobs), func(i, w int) {
		s.rec.Span(s.rank, w, "consolidate", func() { jobs[i].parent.ConsolidateFrom(&jobs[i].children) })
	})
	for i, p := range parents {
		for o := 0; o < 8; o++ {
			s.releaseBlock(jobs[i].children[o])
			delete(s.data, p.Child(o))
		}
		s.data[p] = jobs[i].parent
	}
	return nil
}

func (d *forkJoinDriver) drain() error { return nil }

// forkJoinMover packs and unpacks block payloads in parallel regions while
// the master performs the MPI operations.
type forkJoinMover struct {
	d *forkJoinDriver
}

func (m *forkJoinMover) sendBlock(bc mesh.Coord, blk *grid.Data, to, tag int) {
	s := m.d.s
	lease := s.arena.LeaseFloat64(blk.InteriorLen())
	s.rec.Span(s.rank, 0, "exchange-pack", func() { blk.PackInterior(lease.Float64()) })
	start := time.Now()
	if err := s.comm.SendOwned(lease, to, tag); err != nil {
		panic(err)
	}
	s.rec.Record(s.rank, 0, "exchange-send", start, time.Now())
}

func (m *forkJoinMover) recvBlock(bc mesh.Coord, from, tag int) *grid.Data {
	s := m.d.s
	blk := s.newBlockData(bc, false)
	buf := s.arena.GetFloat64(blk.InteriorLen())
	start := time.Now()
	if _, err := s.comm.Recv(buf, from, tag); err != nil {
		panic(err)
	}
	s.rec.Record(s.rank, 0, "exchange-recv", start, time.Now())
	s.rec.Span(s.rank, 0, "exchange-unpack", func() { blk.UnpackInterior(buf) })
	s.arena.PutFloat64(buf)
	return blk
}

func (m *forkJoinMover) barrier() error { return nil }

// quiesce is a no-op: parallel regions end with an implicit barrier.
func (d *forkJoinDriver) quiesce() error { return nil }
