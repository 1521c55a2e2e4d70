package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"miniamr/internal/harness"
	"miniamr/internal/trace"
)

// minRounds is the least number of timed rounds, however short the
// window: enough for a median to mean something.
const minRounds = 3

// bench runs one workload's jobs and gates each of them.
type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	log    io.Writer
	gate   gate
}

func newBench(w workload, seed uint64, seconds int, log io.Writer) *bench {
	return &bench{w: w, seed: seed, window: time.Duration(seconds) * time.Second, log: log}
}

// jobResult is one gated job.
type jobResult struct {
	m harness.Metrics
	// setup is harness.Run's wall time minus the job's own Metrics.Total.
	setup time.Duration
}

// job runs one variant once, after a full collection so it pays for no
// earlier job's garbage, and passes it through the gate.
func (b *bench) job(v harness.Variant, rec *trace.Recorder) (jobResult, error) {
	spec := b.w.spec(b.seed, v)
	spec.Recorder = rec
	runtime.GC()
	start := time.Now()
	m, err := harness.Run(spec)
	wall := time.Since(start)
	if err := b.gate.check(b.w.shapeOf(v).ranks(), m, err); err != nil {
		return jobResult{}, fmt.Errorf("%s %s job: %w", b.w.name, v, err)
	}
	return jobResult{m: m, setup: wall - m.Total}, nil
}

// warmUp runs one untimed, gated job per variant. It absorbs the host
// calibration inside the first harness.Run and first-run warm-up, and
// fixes the gate's reference checksums. It returns the MPI-only job.
func (b *bench) warmUp() (harness.Metrics, error) {
	var first harness.Metrics
	for i, v := range harness.Variants {
		j, err := b.job(v, nil)
		if err != nil {
			return first, err
		}
		if i == 0 {
			first = j.m
		}
	}
	return first, nil
}

// header prints what the run measures and on what.
func (b *bench) header() {
	w := b.w
	fmt.Fprintf(b.log, "# perfbench workload=%s seed=%d window=%s\n", w.name, b.seed, b.window)
	fmt.Fprintf(b.log, "# why: %s\n", w.why)
	fmt.Fprintf(b.log, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if w.procs > 1 {
		fmt.Fprintf(b.log, "# processes: %d over loopback TCP, each child GOMAXPROCS=%s\n", w.procs, childGOMAXPROCS)
	} else {
		fmt.Fprintf(b.log, "# processes: 1 (channel transport)\n")
	}
	for _, v := range harness.Variants {
		fmt.Fprintf(b.log, "# shape %-8s %s, net none\n", v, w.shapeOf(v))
	}
	fmt.Fprintf(b.log, "# input: four-spheres, sphere centres/radii/speeds jittered by seed %d\n", b.seed)
	fmt.Fprintf(b.log, "# loop: closed, one job at a time, variants interleaved per round; GC before every job\n")
}

// runEndToEnd measures the end-to-end metrics: per-variant time to
// solution and heap allocations, and set-up time.
func (b *bench) runEndToEnd() (result, error) {
	b.header()
	if _, err := b.warmUp(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up: %v\n", err)
	}
	nv := len(harness.Variants)
	times := make([][]float64, nv)
	allocs := make([][]float64, nv)
	var setups []float64
	deadline := time.Now().Add(b.window)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for i, v := range harness.Variants {
			j, err := b.job(v, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				continue
			}
			times[i] = append(times[i], j.m.Total.Seconds())
			allocs[i] = append(allocs[i], float64(j.m.HeapAllocs))
			setups = append(setups, j.setup.Seconds())
		}
	}
	res := b.newResult()
	for i, v := range harness.Variants {
		res.add(string(v)+"_s", "s", times[i])
	}
	for i, v := range harness.Variants {
		res.add(string(v)+"_allocs", "count", allocs[i])
	}
	res.add("setup_s", "s", setups)
	return res, nil
}

// result is the benchmark's output: the gate's tally and the metrics in
// print order.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	notes     []string
}

// metric is one reported metric with the samples behind its value.
type metric struct {
	name, unit string
	value      float64
	samples    []float64
}

// value is a metric as the result's JSON object carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics marshals as a JSON object keyed by metric name, in sorted key
// order.
type metrics []metric

func (ms metrics) MarshalJSON() ([]byte, error) {
	sorted := append(metrics(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	out := []byte{'{'}
	for i, m := range sorted {
		if i > 0 {
			out = append(out, ',')
		}
		k, err := json.Marshal(m.name)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(value{m.value, m.unit})
		if err != nil {
			return nil, err
		}
		out = append(append(append(out, k...), ':'), v...)
	}
	return append(out, '}'), nil
}

func (b *bench) newResult() result {
	return result{Correct: b.gate.failed == 0, Attempted: b.gate.attempted, Failed: b.gate.failed}
}

// add records a metric as the median of its samples (0 without any).
func (r *result) add(name, unit string, samples []float64) {
	r.Metrics = append(r.Metrics, metric{name: name, unit: unit, value: median(samples), samples: samples})
}

// addValue records a single measured value.
func (r *result) addValue(name, unit string, x float64) {
	r.add(name, unit, []float64{x})
}

// print writes one human-readable line per metric, then the JSON object
// as the last line.
func (r result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, m := range r.Metrics {
		if len(m.samples) > 1 {
			q1, q3 := quartiles(m.samples)
			fmt.Fprintf(w, "%-34s %14.6g %-7s median of n=%d, q1=%.6g q3=%.6g\n", m.name, m.value, m.unit, len(m.samples), q1, q3)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %-7s\n", m.name, m.value, m.unit)
		}
	}
	if r.Failed > 0 {
		fmt.Fprintf(w, "# FAILED: %d of %d jobs failed the correctness gate\n", r.Failed, r.Attempted)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// median returns the middle of xs (mean of the middle two), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
