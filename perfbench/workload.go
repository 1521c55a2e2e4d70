package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"miniamr/internal/amr/app"
	"miniamr/internal/harness"
	"miniamr/internal/simnet"
)

// shape is a virtual cluster topology.
type shape struct{ nodes, ranksPerNode, coresPerRank int }

func (s shape) ranks() int { return s.nodes * s.ranksPerNode }

func (s shape) String() string {
	return fmt.Sprintf("%d node x %d rank x %d core", s.nodes, s.ranksPerNode, s.coresPerRank)
}

// workload is one named input of the benchmark: the seeded miniAMR
// problem on the cluster shape each variant runs on, in one or more
// processes.
type workload struct {
	name string
	// why records the reason the workload was chosen.
	why string
	// procs is RunSpec.Procs: 0 keeps the run in one process.
	procs int
	// shapeOf gives each variant's topology; every variant gets the same
	// core count.
	shapeOf func(v harness.Variant) shape
}

// spec is the run of one variant of the workload.
func (w workload) spec(seed uint64, v harness.Variant) harness.RunSpec {
	s := w.shapeOf(v)
	return harness.RunSpec{
		Nodes: s.nodes, RanksPerNode: s.ranksPerNode, CoresPerRank: s.coresPerRank,
		Net: simnet.None(), Cfg: amrConfig(seed), Variant: v, Procs: w.procs,
	}
}

// childGOMAXPROCS is the thread budget of each multi-process child: one
// core's worth, so two children fit the host's two cores.
const childGOMAXPROCS = "1"

// The miniAMR problem of every workload. Five stages per timestep keep a
// job near half a second, so a run's median rests on about thirty jobs
// per variant: on a shared host whose other tenants take a core in
// bursts of seconds, a median over a dozen jobs of 1.4 s moved by a
// third from run to run. Four timesteps give two refinement epochs.
var (
	amrRoot  = [3]int{4, 2, 2}
	amrScale = harness.Scale{BlockCells: 8, Vars: 8, Timesteps: 4, StagesPerTimestep: 5, MaxLevel: 2}
)

// Jitter bounds of the seeded four-spheres input, as fractions of the
// preset's values (the centre jitter is absolute, in domain units). They
// keep every sphere inside the domain and on its preset side, and are
// small on purpose: refinement is discrete, and wider bounds (0.04 /
// 15%) moved the per-job allocation count by up to 7% between seeds,
// which would mask the run-to-run comparison the benchmark exists for.
const (
	centreJitter = 0.01
	radiusJitter = 0.03
	speedJitter  = 0.03
	// pcgStream separates the input stream from any other use of a seed.
	pcgStream = 0x70657266
)

// amrConfig generates the seeded miniAMR input: the four-spheres preset
// with each sphere's centre, radius and speed drawn uniformly within the
// jitter bounds around the preset's values.
func amrConfig(seed uint64) app.Config {
	cfg := harness.FourSpheres(amrRoot, amrScale)
	rng := rand.New(rand.NewPCG(seed, pcgStream))
	jitter := func(width float64) float64 { return (2*rng.Float64() - 1) * width }
	for i := range cfg.Objects {
		o := &cfg.Objects[i]
		for d := range o.Center {
			o.Center[d] += jitter(centreJitter)
		}
		r := o.Size[0] * (1 + jitter(radiusJitter))
		o.Size = [3]float64{r, r, r}
		o.Move[0] *= 1 + jitter(speedJitter)
	}
	return cfg
}

// hybridOrMPI is the amr-node shape: MPI-only as 2 ranks x 1 core, the
// hybrids as 1 rank x 2 cores.
func hybridOrMPI(v harness.Variant) shape {
	if v == harness.MPIOnly {
		return shape{1, 2, 1}
	}
	return shape{1, 1, 2}
}

// twoSingleCoreRanks is the amr-2proc shape: one single-core rank per
// process for every variant.
func twoSingleCoreRanks(harness.Variant) shape { return shape{2, 1, 1} }

// workloads lists the benchmark's workloads in presentation order.
var workloads = []workload{
	{
		name:    "amr-node",
		why:     "fine-grained miniAMR tasks on one node: task runtime, fork-join pool, arena and stencil dominate",
		shapeOf: hybridOrMPI,
	},
	{
		name:    "amr-2proc",
		why:     "miniAMR over 2 OS processes and loopback TCP: wire codec, TCP transport, child spawn, block shipping",
		procs:   2,
		shapeOf: twoSingleCoreRanks,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
