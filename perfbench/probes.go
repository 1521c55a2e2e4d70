package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"miniamr/internal/amr/grid"
	"miniamr/internal/cluster"
	"miniamr/internal/forkjoin"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
	"miniamr/internal/tampi"
	"miniamr/internal/task"
	"miniamr/internal/trace"
	"miniamr/internal/wire"
)

// Probes time calls into one layer's public API from outside it. Each
// probe repeats its measurement probeReps times and reports the median;
// every repetition is recorded as a "probe:<metric>" span on the
// benchmark's own recorder.

const (
	probeReps = 5
	// probeWorkers matches the host's two cores and the workloads' cores.
	probeWorkers = 2
)

type prober struct {
	rec *trace.Recorder
	res *result
	mu  sync.Mutex // guards err: ranks and tasks report concurrently
	err error
}

// fail keeps the first probe error.
func (p *prober) fail(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
	}
}

// measure runs body probeReps times, records each run as a span and adds
// the median of its values as the named metric.
func (p *prober) measure(name, unit string, body func() float64) {
	vals := make([]float64, probeReps)
	for i := range vals {
		start := time.Now()
		vals[i] = body()
		p.rec.Record(-1, 0, "probe:"+name, start, time.Now())
	}
	p.res.add(name, unit, vals)
}

// nsPerOp times n calls of op and returns nanoseconds per call.
func nsPerOp(n int, op func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// runProbes measures every layer probe. msgFloats sizes the frame-codec
// probe; the miniAMR block and variable count size the arena and grid
// probes.
func (p *prober) runProbes(msgFloats int) {
	block := grid.Size{X: amrScale.BlockCells, Y: amrScale.BlockCells, Z: amrScale.BlockCells}
	p.probeMembuf(block.X * block.Y * amrScale.Vars)
	p.probeFrame(msgFloats)
	p.probeTCP()
	p.probeMPI()
	p.probeTask()
	p.probeMETG()
	p.probeTAMPI()
	p.probeForkJoin()
	p.probeGrid(block, amrScale.Vars)
}

// probeMembuf: one arena Get+Put of a ghost-face-sized buffer.
func (p *prober) probeMembuf(n int) {
	a := membuf.New()
	p.measure("membuf.get_put_ns", "ns", func() float64 {
		return nsPerOp(200000, func() { a.PutFloat64(a.GetFloat64(n)) })
	})
}

// probeFrame: WriteFrame then ReadFrame of one data frame through
// memory, at the workload's mean MPI message size.
func (p *prober) probeFrame(n int) {
	arena := membuf.New()
	pay := arena.LeaseFloat64(n)
	defer pay.Release()
	vals := pay.Float64()
	for i := range vals {
		vals[i] = float64(i)
	}
	var buf bytes.Buffer
	var scratch []byte
	h := wire.Header{Type: wire.FrameData, Src: 0, Dst: 1, Tag: 7}
	roundTrip := func() {
		buf.Reset()
		if err := wire.WriteFrame(&buf, h, pay, nil, &scratch); err != nil {
			p.fail(fmt.Errorf("frame probe: %w", err))
			return
		}
		_, got, _, err := wire.ReadFrame(&buf, arena)
		if err != nil {
			p.fail(fmt.Errorf("frame probe: %w", err))
			return
		}
		got.Release()
	}
	var rt []float64
	p.measure("wire.frame_rt_ns", "ns", func() float64 {
		ns := nsPerOp(2000, roundTrip)
		rt = append(rt, ns)
		return ns
	})
	// Payload bytes per round-trip nanosecond, times 1e3, is MB/s.
	p.res.add("wire.frame_mb_s", "MB/s", mapEach(rt, func(ns float64) float64 { return float64(n*8) / ns * 1e3 }))
}

// probeTCP: a one-value MPI ping-pong between two world parts joined by
// two wire.Nodes over loopback TCP, i.e. through the TCP mpi.Transport.
func (p *prober) probeTCP() {
	const ranks = 2
	nodes := make([]*wire.Node, 0, ranks)
	defer func() {
		for _, n := range nodes {
			p.fail(n.Close())
			p.fail(n.Err())
		}
	}()
	for i := 0; i < ranks; i++ {
		n, err := wire.Listen("")
		if err != nil {
			p.fail(fmt.Errorf("tcp probe: %w", err))
			return
		}
		nodes = append(nodes, n)
	}
	coord := nodes[0].Addr()
	bootErrs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *wire.Node) {
			defer wg.Done()
			bootErrs[i] = n.Bootstrap(i, ranks, ranks, coord, 10*time.Second)
		}(i, n)
	}
	wg.Wait()
	if err := errors.Join(bootErrs...); err != nil {
		p.fail(fmt.Errorf("tcp probe bootstrap: %w", err))
		return
	}
	topo := cluster.MustNew(1, ranks, 1)
	worlds := make([]*mpi.World, ranks)
	for i, n := range nodes {
		lo, hi := n.LocalRange()
		w, err := mpi.NewWorldPart(topo, simnet.None(), lo, hi, n)
		if err != nil {
			p.fail(fmt.Errorf("tcp probe: %w", err))
			return
		}
		n.Start(w, w.Arena())
		worlds[i] = w
	}
	p.measure("wire.tcp_pingpong_us", "us", func() float64 {
		ns := pingPong(worlds, 2000, p.fail)
		return ns / 1e3
	})
}

// pingPong bounces one value between ranks 0 and 1 n times across the
// given worlds and returns nanoseconds per round trip as seen by rank 0.
func pingPong(worlds []*mpi.World, n int, fail func(error)) float64 {
	var perRT float64
	body := func(c *mpi.Comm) {
		buf := []float64{1}
		peer := 1 - c.Rank()
		start := time.Now()
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				fail(c.Send(buf, peer, 0))
				_, err := c.Recv(buf, peer, 0)
				fail(err)
			} else {
				_, err := c.Recv(buf, peer, 0)
				fail(err)
				fail(c.Send(buf, peer, 0))
			}
		}
		if c.Rank() == 0 {
			perRT = float64(time.Since(start).Nanoseconds()) / float64(n)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(worlds))
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			errs[i] = w.Run(body)
		}(i, w)
	}
	wg.Wait()
	fail(errors.Join(errs...))
	return perRT
}

// probeMPI: channel-transport ping-pong and a one-value Allreduce on a
// 2-rank in-process world.
func (p *prober) probeMPI() {
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	p.measure("mpi.pingpong_ns", "ns", func() float64 {
		return pingPong([]*mpi.World{w}, 20000, p.fail)
	})
	p.measure("mpi.allreduce_ns", "ns", func() float64 {
		const n = 10000
		var per float64
		p.fail(w.Run(func(c *mpi.Comm) {
			in := []float64{float64(c.Rank())}
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := c.AllreduceFloat64(in, mpi.Sum); err != nil {
					p.fail(err)
					return
				}
			}
			if c.Rank() == 0 {
				per = float64(time.Since(start).Nanoseconds()) / n
			}
		}))
		return per
	})
}

// probeTask mirrors internal/task's benchmarks on a 2-worker runtime:
// independent spawns, a dependency chain, one writer releasing eight
// readers, and a 16-key access list. Times are per spawned task, except
// fanout, which is per writer-plus-eight-readers group.
func (p *prober) probeTask() {
	rt := task.MustNewRuntime(task.Options{Workers: probeWorkers})
	defer rt.Shutdown()
	const n = 20000
	var sink atomic.Int64
	spawnAll := func(body func()) float64 {
		start := time.Now()
		body()
		rt.Wait()
		return float64(time.Since(start).Nanoseconds()) / n
	}
	p.measure("task.spawn_ns", "ns", func() float64 {
		return spawnAll(func() {
			for i := 0; i < n; i++ {
				rt.Spawn("t", func(*task.Task) { sink.Add(1) })
			}
		})
	})
	p.measure("task.chain_ns", "ns", func() float64 {
		return spawnAll(func() {
			for i := 0; i < n; i++ {
				rt.Spawn("t", func(*task.Task) {}, task.InOut("chain")...)
			}
		})
	})
	p.measure("task.fanout_ns", "ns", func() float64 {
		return spawnAll(func() {
			for i := 0; i < n; i++ {
				rt.Spawn("w", func(*task.Task) {}, task.Out("k")...)
				for r := 0; r < 8; r++ {
					rt.Spawn("r", func(*task.Task) {}, task.In("k")...)
				}
			}
		})
	})
	keys := make([]any, 16)
	for i := range keys {
		keys[i] = i
	}
	accs := task.In(keys...)
	p.measure("task.multidep_ns", "ns", func() float64 {
		return spawnAll(func() {
			for i := 0; i < n; i++ {
				rt.Spawn("t", func(*task.Task) {}, accs...)
			}
		})
	})
	p.measure("task.spawn_allocs", "count", func() float64 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			rt.Spawn("t", func(*task.Task) { sink.Add(1) })
		}
		rt.Wait()
		runtime.ReadMemStats(&ms1)
		return float64(ms1.Mallocs-ms0.Mallocs) / n
	})
}

// metgGrainsUs is the grain ladder of the METG probe, in microseconds.
var metgGrainsUs = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// metgWork is the serial busy time each grain step runs.
const metgWork = 20 * time.Millisecond

// spin runs a dependent floating-point loop of n iterations.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*0.9999999 + 1e-7
	}
	return x
}

// probeMETG measures the minimum effective task grain (Task Bench's
// METG): the smallest busy-loop grain at which independent tasks on a
// 2-worker runtime still reach 50% efficiency, where efficiency is the
// serial time of the same loops over workers times the parallel wall
// time. The crossing is interpolated on a log scale between the ladder's
// grains; a runtime that never reaches 50% reads as the largest grain.
func (p *prober) probeMETG() {
	start := time.Now()
	spin(1 << 20)
	itersPerUs := float64(1<<20) / math.Max(float64(time.Since(start).Nanoseconds())/1e3, 1)
	rt := task.MustNewRuntime(task.Options{Workers: probeWorkers})
	defer rt.Shutdown()
	p.measure("task.metg_us", "us", func() float64 {
		prevG, prevEff := 0.0, 0.0
		for _, g := range metgGrainsUs {
			iters := int(math.Max(g*itersPerUs, 1))
			tasks := int(math.Max(float64(metgWork.Microseconds())/g, 16))
			out := make([]float64, tasks)
			t0 := time.Now()
			for i := range out {
				out[i] = spin(iters)
			}
			serial := time.Since(t0)
			t1 := time.Now()
			for i := range out {
				rt.Spawn("grain", func(*task.Task) { out[i] = spin(iters) })
			}
			rt.Wait()
			par := time.Since(t1)
			eff := serial.Seconds() / (probeWorkers * par.Seconds())
			if eff >= 0.5 {
				if prevG == 0 {
					return g
				}
				f := (0.5 - prevEff) / (eff - prevEff)
				return math.Exp(math.Log(prevG) + f*(math.Log(g)-math.Log(prevG)))
			}
			prevG, prevEff = g, eff
		}
		return metgGrainsUs[len(metgGrainsUs)-1]
	})
}

// probeTAMPI: on a 2-rank world, rank 1 spawns a task that binds an
// Irecv through TAMPI and a successor that reads the buffer; rank 0
// sends once the receive is bound. The metric is the median time from
// just before rank 0's Send until the successor starts.
func (p *prober) probeTAMPI() {
	const n = 500
	w := mpi.NewWorld(cluster.MustNew(1, 2, 1), simnet.None())
	p.measure("tampi.iwait_wake_ns", "ns", func() float64 {
		base := time.Now()
		lat := make([]float64, n)
		// One slot: rank 1 announces each bound receive exactly once
		// before rank 0 may send it.
		bound := make(chan struct{}, 1)
		p.fail(w.Run(func(c *mpi.Comm) {
			if c.Rank() == 0 {
				buf := []float64{0}
				for i := 0; i < n; i++ {
					<-bound
					buf[0] = float64(time.Since(base).Nanoseconds())
					p.fail(c.Send(buf, 1, 0))
				}
				return
			}
			rt := task.MustNewRuntime(task.Options{Workers: probeWorkers})
			defer rt.Shutdown()
			x := tampi.New(c)
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				rt.Spawn("recv", func(t *task.Task) {
					p.fail(x.Irecv(t, buf, 0, 0))
					bound <- struct{}{}
				}, task.Out("buf")...)
				rt.Spawn("consume", func(*task.Task) {
					lat[i] = float64(time.Since(base).Nanoseconds()) - buf[0]
				}, task.In("buf")...)
				rt.Wait()
			}
			p.fail(x.Err())
		}))
		return median(lat)
	})
}

// probeForkJoin: one Pool.For region over two empty iterations.
func (p *prober) probeForkJoin() {
	pool := forkjoin.MustNew(probeWorkers)
	defer pool.Close()
	p.measure("forkjoin.for_ns", "ns", func() float64 {
		return nsPerOp(50000, func() { pool.For(2, func(int) {}) })
	})
}

// probeGrid times grid.Data's kernels on one block of the workload's
// size: the 7-point stencil, packing and unpacking all six faces, and
// splitting into and consolidating from eight children.
func (p *prober) probeGrid(size grid.Size, vars int) {
	d := grid.MustNewData(size, vars)
	d.Fill([3]float64{}, [3]float64{1, 1, 1}, func(v int, x, y, z float64) float64 {
		return float64(v) + x + 2*y + 3*z
	})
	flops := float64(d.Stencil7Flops(0, vars))
	p.measure("grid.stencil7_gflops", "GFLOP/s", func() float64 {
		return flops / nsPerOp(300, func() { d.Stencil7(0, vars) })
	})
	faceBytes := 0
	for dir := grid.DirX; dir <= grid.DirZ; dir++ {
		faceBytes += 2 * 8 * d.FaceLen(dir, 0, vars)
	}
	buf := make([]float64, d.FaceLen(grid.DirX, 0, vars)+d.FaceLen(grid.DirY, 0, vars)+d.FaceLen(grid.DirZ, 0, vars))
	faces := func(op func(dir grid.Dir, side grid.Side, buf []float64) int) func() {
		return func() {
			for dir := grid.DirX; dir <= grid.DirZ; dir++ {
				op(dir, grid.Low, buf)
				op(dir, grid.High, buf)
			}
		}
	}
	pack := faces(func(dir grid.Dir, side grid.Side, buf []float64) int { return d.PackFace(dir, side, 0, vars, buf) })
	unpack := faces(func(dir grid.Dir, side grid.Side, buf []float64) int { return d.UnpackFace(dir, side, 0, vars, buf) })
	p.measure("grid.pack_face_gbs", "GB/s", func() float64 { return float64(faceBytes) / nsPerOp(5000, pack) })
	p.measure("grid.unpack_face_gbs", "GB/s", func() float64 { return float64(faceBytes) / nsPerOp(5000, unpack) })
	var children [8]*grid.Data
	for i := range children {
		children[i] = grid.MustNewData(size, vars)
	}
	p.measure("grid.split_ns", "ns", func() float64 { return nsPerOp(300, func() { d.SplitInto(&children) }) })
	p.measure("grid.consolidate_ns", "ns", func() float64 { return nsPerOp(300, func() { d.ConsolidateFrom(&children) }) })
}

// mapEach applies f to every element of xs.
func mapEach[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}
