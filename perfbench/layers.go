package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"miniamr/internal/harness"
	"miniamr/internal/trace"
)

// phaseLabels are the span labels miniAMR already records whose summed
// time (over all ranks and workers) is reported per variant as
// phase.<label>_s.<v>. A label a variant never records reads 0.
var phaseLabels = []string{
	"stencil", "pack", "unpack", "local-copy", "cksum-local",
	"split", "consolidate", "exchange-pack", "exchange-unpack",
}

// waitLabels are the spans in which a rank or task waits on MPI.
var waitLabels = []string{"MPI_Waitany", "recv-wait", "send-wait"}

// traceSample is what one traced job contributes.
type traceSample struct {
	total, wait, overlap, util, idle float64
	phase                            []float64 // by phaseLabels index
}

// runLayers measures the per-layer metrics: the probes, then rounds of
// untraced jobs (counters) interleaved, for in-process workloads, with
// traced jobs (phase times and overlap). Chrome traces of the probe spans
// and of each variant's last traced job go to outDir.
func (b *bench) runLayers(outDir string) (result, error) {
	b.header()
	deadline := time.Now().Add(b.window)
	first, err := b.warmUp()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up: %v\n", err)
	}
	// Size the frame-codec probe at this workload's mean message size;
	// every workload's MPI-only job sends messages.
	msgFloats := 1
	if first.Messages > 0 {
		msgFloats = max(int(first.CommBytes/first.Messages/8), 1)
	}

	var probeRes result
	benchRec := trace.NewRecorder()
	p := &prober{rec: benchRec, res: &probeRes}
	p.runProbes(msgFloats)
	if p.err != nil {
		return result{}, fmt.Errorf("probes: %w", p.err)
	}

	traced := b.w.procs <= 1
	nv := len(harness.Variants)
	untraced := make([][]harness.Metrics, nv)
	samples := make([][]traceSample, nv)
	lastRec := make([]*trace.Recorder, nv)
	for round := 0; round < 1 || time.Now().Before(deadline); round++ {
		for i, v := range harness.Variants {
			j, err := b.job(v, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				continue
			}
			untraced[i] = append(untraced[i], j.m)
			if !traced {
				continue
			}
			rec := trace.NewRecorder()
			j, err = b.job(v, rec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced %v\n", err)
				continue
			}
			samples[i] = append(samples[i], summarise(j.m, rec.Events()))
			lastRec[i] = rec
		}
	}

	res := b.newResult()
	res.notes = append(res.notes, fmt.Sprintf("frame probe payload: %d float64 (mean MPI message of this workload's MPI-only job)", msgFloats))
	if !traced {
		res.notes = append(res.notes, fmt.Sprintf("%s cannot be traced (Procs>1 rejects a Recorder): its layer numbers come from probes and counters only; phase.*, trace.* and mpi.wait_s.* read 0", b.w.name))
	}
	res.Metrics = append(res.Metrics, probeRes.Metrics...)
	b.addCounters(&res, untraced)
	b.addTraced(&res, untraced, samples)

	if err := writeTraces(outDir, b.w.name, benchRec, lastRec); err != nil {
		return result{}, err
	}
	return res, nil
}

// summarise reduces one traced job to its trace statistics.
func summarise(m harness.Metrics, events []trace.Event) traceSample {
	st := trace.ComputeStats(events)
	s := traceSample{
		total:   m.Total.Seconds(),
		overlap: st.OverlapTime.Seconds(),
		util:    st.Utilization,
		idle:    st.MaxIdleGap.Seconds(),
		phase:   make([]float64, len(phaseLabels)),
	}
	for _, l := range waitLabels {
		s.wait += st.ByLabel[l].Seconds()
	}
	for k, l := range phaseLabels {
		s.phase[k] = st.ByLabel[l].Seconds()
	}
	return s
}

// addCounters adds the per-variant metrics read from harness.Metrics.
func (b *bench) addCounters(res *result, untraced [][]harness.Metrics) {
	pick := func(i int, f func(harness.Metrics) float64) []float64 {
		return mapEach(untraced[i], f)
	}
	for i, v := range harness.Variants {
		vs := string(v)
		res.add("membuf.hit_rate."+vs, "ratio", pick(i, func(m harness.Metrics) float64 { return m.Arena.HitRate() }))
		res.add("membuf.gets."+vs, "count", pick(i, func(m harness.Metrics) float64 { return float64(m.Arena.Gets) }))
		res.add("mpi.messages."+vs, "count", pick(i, func(m harness.Metrics) float64 { return float64(m.Messages) }))
		res.add("mpi.bytes."+vs, "B", pick(i, func(m harness.Metrics) float64 { return float64(m.CommBytes) }))
		res.add("mesh.refine_s."+vs, "s", pick(i, func(m harness.Metrics) float64 { return m.Refine.Seconds() }))
		res.add("harness.host_eff."+vs, "ratio", pick(i, func(m harness.Metrics) float64 { return m.HostEff }))
	}
	res.addValue("mesh.blocks", "count", float64(b.gate.blocks))
	df := 0
	for i, v := range harness.Variants {
		if v == harness.DataFlow {
			df = i
		}
	}
	tasks := median(pick(df, func(m harness.Metrics) float64 { return float64(m.Tasks) }))
	allocs := median(pick(df, func(m harness.Metrics) float64 { return float64(m.HeapAllocs) }))
	res.addValue("task.count", "count", tasks)
	perTask := 0.0
	if tasks > 0 {
		perTask = allocs / tasks
	}
	res.addValue("task.allocs_per_task", "count", perTask)
}

// addTraced adds the per-variant metrics of the traced jobs and the
// tracing overhead.
func (b *bench) addTraced(res *result, untraced [][]harness.Metrics, samples [][]traceSample) {
	pick := func(i int, f func(traceSample) float64) []float64 {
		return mapEach(samples[i], f)
	}
	var tracedSum, plainSum float64
	for i, v := range harness.Variants {
		vs := string(v)
		res.add("mpi.wait_s."+vs, "s", pick(i, func(s traceSample) float64 { return s.wait }))
		for k, l := range phaseLabels {
			res.add("phase."+l+"_s."+vs, "s", pick(i, func(s traceSample) float64 { return s.phase[k] }))
		}
		res.add("trace.overlap_s."+vs, "s", pick(i, func(s traceSample) float64 { return s.overlap }))
		res.add("trace.utilization."+vs, "ratio", pick(i, func(s traceSample) float64 { return s.util }))
		res.add("trace.max_idle_gap_s."+vs, "s", pick(i, func(s traceSample) float64 { return s.idle }))
		tracedSum += median(pick(i, func(s traceSample) float64 { return s.total }))
		plainSum += median(mapEach(untraced[i], func(m harness.Metrics) float64 { return m.Total.Seconds() }))
	}
	overhead := 0.0
	if tracedSum > 0 && plainSum > 0 {
		overhead = tracedSum/plainSum - 1
	}
	res.addValue("trace.overhead_frac", "ratio", overhead)
}

// writeTraces writes the benchmark's probe spans and each variant's last
// traced job as Chrome traces.
func writeTraces(dir, workload string, probes *trace.Recorder, jobs []*trace.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	write := func(name string, events []trace.Event) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, events); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", name, err)
		}
		return f.Close()
	}
	if err := write(workload+"-probes.json", probes.Events()); err != nil {
		return err
	}
	for i, rec := range jobs {
		if rec == nil {
			continue
		}
		if err := write(fmt.Sprintf("%s-%s.json", workload, harness.Variants[i]), rec.Events()); err != nil {
			return err
		}
	}
	return nil
}
