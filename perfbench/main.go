// Command perfbench is the repository's benchmark: per-variant time to
// solution of the paper's three parallelisation strategies (MPI-only,
// MPI+fork-join, TAMPI+data-flow) on equal-core miniAMR workloads, plus a
// per-layer ladder measured by probes and by a separate traced run.
//
// Usage, from the repository root (the wrapper builds this package):
//
//	bash perfbench/run.sh --workload amr-node --seed 1 --seconds 55 --trace 0
//
// Each invocation runs one workload as a batch job in a closed loop: one
// job at a time, back to back, from one process. The variants are
// interleaved round by round (mpionly, forkjoin, dataflow, then repeat)
// so drift on the host favours none of them. One untimed job per variant
// absorbs the one-time host calibration inside the first harness.Run and
// first-run warm-up, and runtime.GC runs before every job so no job pays
// for the previous job's garbage. Every job, warm-up included, passes the
// correctness gate (gate.go) or counts as failed; any failure makes the
// command exit non-zero after printing its result.
//
// # Workloads
//
// Every workload runs all three variants on the seeded four-spheres
// miniAMR problem (8³ blocks, 4 timesteps of 5 stages) with simnet.None(),
// so only real transport cost is measured, and gives every variant the
// same number of cores, never more than the host's two. The seed jitters
// the sphere centres, radii and speeds slightly (workload.go).
//
//   - amr-node: one virtual node. MPI-only runs 2 ranks × 1 core;
//     fork-join and data-flow run 1 rank × 2 cores, the two ends of the
//     paper's ranks-per-node axis. Fine-grained tasks (about 67k per job)
//     make the task runtime, the fork-join pool, the membuf arena and the
//     stencil do most of the work; MPI runs only in MPI-only. This is
//     where making data-flow cheap must show.
//   - amr-2proc: the same problem split across 2 OS processes over
//     loopback TCP (RunSpec.Procs=2), 1 rank × 1 core each, for every
//     variant. The only workload that exercises the wire codec, the TCP
//     mpi.Transport and child spawn; load balancing ships whole blocks
//     between processes, and MPI crosses sockets rather than in-process
//     channels. Each child runs with GOMAXPROCS=1.
//
// A HYDRO control workload (512² grid, 8×8 tiles, 40 timesteps on 2
// single-core ranks) was measured and left out: on a 2-vCPU VM whose
// hypervisor stole 10-25% of the CPU at times, the spread of its
// per-run medians over ten seeds reached 25%, the largest bound a time
// metric may have. The mpi.allreduce_ns probe still times its CFL
// reduction's collective; its sweep kernel is not measured.
//
// # Metrics
//
// With --trace 0 the command prints the end-to-end metrics, all lower is
// better and shared by every workload: <v>_s, the median over the timed
// jobs of harness.Metrics.Total (slowest rank, program start to end,
// initial refinement included, set-up excluded); <v>_allocs, the median
// heap objects allocated per job (children merged for amr-2proc); and
// setup_s, the median over all timed jobs of harness.Run's wall time
// minus Metrics.Total (world build, Bind/Validate, and for amr-2proc the
// child spawn, rendezvous and report merge).
//
// With --trace 1 it prints the per-layer metrics instead. Each is
// measured from outside the layer, by a probe timing calls into its
// public API (probes.go) or from harness.Metrics counters and the spans
// the program already records (layers.go). Which end-to-end metric each
// layer metric should move, and on which workload:
//
//	layer metric                          should move          on (predict no change on)
//	membuf.get_put_ns                     *_allocs, dataflow_s amr-node
//	membuf.hit_rate.<v>, membuf.gets.<v>  <v>_allocs           amr-node, amr-2proc
//	wire.frame_rt_ns, wire.frame_mb_s     *_s                  amr-2proc (amr-node)
//	wire.tcp_pingpong_us                  *_s, setup_s         amr-2proc (amr-node)
//	mpi.pingpong_ns                       mpionly_s            amr-node (amr-2proc)
//	mpi.allreduce_ns                      *_s                  amr-node, amr-2proc
//	mpi.messages.<v>, mpi.bytes.<v>       <v>_s                amr-2proc
//	mpi.wait_s.<v>                        <v>_s                amr-node
//	task.{spawn,chain,fanout,multidep}_ns dataflow_s, _allocs  amr-node
//	task.spawn_allocs                     dataflow_allocs      amr-node
//	task.metg_us                          dataflow_s           amr-node
//	task.count, task.allocs_per_task      dataflow_allocs      amr-node
//	tampi.iwait_wake_ns                   dataflow_s           amr-2proc
//	forkjoin.for_ns                       forkjoin_s           amr-node (amr-2proc)
//	grid.* (stencil, pack, split, ...)    all *_s              amr-node, amr-2proc
//	mesh.refine_s.<v>, mesh.blocks        <v>_s                amr-node
//	phase.<label>_s.<v>                   <v>_s                amr-node
//	trace.overlap_s/utilization/max_idle_gap_s.<v>  dataflow_s amr-node
//	harness.host_eff.<v>                  <v>_s                all
//
// The traced run repeats each in-process workload with RunSpec.Recorder
// set and reports trace.overhead_frac, the traced job time over the
// untraced one minus 1. amr-2proc cannot be traced (Procs>1 rejects a
// Recorder): its layer numbers come from the probes and counters only,
// and its trace-derived metrics read 0. The benchmark's own spans around
// every probe, and the last traced job of each variant, are written as
// Chrome traces under .bench_build/traces.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"miniamr/internal/harness"
)

func main() {
	// A multi-process run re-executes this binary as its children; they
	// must take the child role before any flag parsing.
	harness.MaybeRunWireChild()
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the flags, runs one workload and prints its result. It
// returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed (miniAMR sphere jitter)")
	seconds := fs.Int("seconds", 55, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from probes and a traced run")
	out := fs.String("out", ".bench_build/traces", "directory for the Chrome traces of a --trace 1 run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if w.procs > 1 {
		// Children inherit the environment: one core's worth of threads
		// each.
		if err := os.Setenv("GOMAXPROCS", childGOMAXPROCS); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	b := newBench(w, *seed, *seconds, stdout)
	var res result
	var err error
	if *traced == 1 {
		res, err = b.runLayers(*out)
	} else {
		res, err = b.runEndToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
