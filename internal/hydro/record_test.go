package hydro

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"miniamr/internal/driver"
)

var update = flag.Bool("update", false, "rewrite the recorded task-graph goldens under testdata/recorded")

// recordOptions lists HYDRO's per-stage dependency key types — buffer
// sections, CFL wave-speed slots and checksum slots, each produced and
// consumed within a stage; tileKey is persistent tile state — and names
// ghost-exchange tags by direction.
var recordOptions = driver.RecordOptions{
	StageKeys: []string{"hydro.sectKey", "hydro.waveKey", "hydro.sumKey"},
	TagClass:  func(tag int) string { return fmt.Sprintf("ghost-%d", tag>>20) },
}

// record runs one variant of the test preset on two ranks of two cores
// under a graph recorder.
func record(t *testing.T, v driver.Variant) (*driver.GraphRecorder, []driver.Result) {
	t.Helper()
	cfg := testConfig()
	rec := driver.NewGraphRecorder(v, 2, recordOptions)
	cfg.TaskObserver = rec.TaskObserver
	results, err := rec.Run(Job(cfg), 1, 2, 2)
	if err != nil {
		t.Fatalf("%s: %v", v, err)
	}
	return rec, results
}

// TestRecordedGraphs diffs each variant's recording against its golden
// and runs the recorder's checks on it.
func TestRecordedGraphs(t *testing.T) {
	for _, v := range driver.Variants {
		t.Run(string(v), func(t *testing.T) {
			rec, _ := record(t, v)
			for _, f := range rec.Findings() {
				t.Errorf("%s", f)
			}
			path := filepath.Join("testdata", "recorded", string(v)+".txt")
			if err := driver.CompareGolden(path, rec.Text(), *update); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRecordedGraphStructure pins the two reductions of the data-flow
// variant: the CFL scan and the local checksums each feed a taskwait,
// and each such taskwait is followed by a collective on the main
// goroutine.
func TestRecordedGraphStructure(t *testing.T) {
	rec, _ := record(t, driver.DataFlow)
	for r := 0; r < 2; r++ {
		g := rec.Rank(r)
		flow := make(map[string]bool)
		for _, e := range g.Edges() {
			if e.Kind == "flow" {
				flow[e.From+" -> "+e.To+" "+e.Key] = true
			}
		}
		for _, want := range []string{"cfl-scan -> WaitKeys hydro.waveKey", "cksum-local -> WaitKeys hydro.sumKey"} {
			if !flow[want] {
				t.Errorf("rank %d: no %s flow edge", r, want)
			}
		}
		main := g.Main()
		waits := 0
		for i, op := range main {
			if !strings.HasPrefix(op, "WaitKeys") {
				continue
			}
			waits++
			if i+1 == len(main) || !strings.HasPrefix(main[i+1], "Allreduce") {
				t.Errorf("rank %d: %s at %d is not followed by a collective", r, op, i)
			}
		}
		if waits == 0 {
			t.Errorf("rank %d: no taskwait recorded", r)
		}
	}
}

// TestDataflowWidthBeatsForkJoin pins the paper's core claim on recorded
// graphs: the data-flow DAG's maximum antichain exceeds the widest
// parallel region of fork-join (the longest run of one stage's instances
// of a task), while all three variants send the same bytes per rank.
func TestDataflowWidthBeatsForkJoin(t *testing.T) {
	bytes := make(map[driver.Variant][]int64)
	for _, v := range driver.Variants {
		rec, results := record(t, v)
		for r, res := range results {
			bytes[v] = append(bytes[v], res.Comm.Bytes)
			if v != driver.DataFlow {
				continue
			}
			g := rec.Rank(r)
			if g.Antichain() <= g.Widest() {
				t.Errorf("rank %d: data-flow antichain %d does not exceed the widest fork-join region %d",
					r, g.Antichain(), g.Widest())
			}
		}
	}
	for r := range bytes[driver.DataFlow] {
		if bytes[driver.MPIOnly][r] != bytes[driver.ForkJoin][r] || bytes[driver.ForkJoin][r] != bytes[driver.DataFlow][r] {
			t.Errorf("rank %d: bytes sent diverge across variants: mpionly %d forkjoin %d dataflow %d",
				r, bytes[driver.MPIOnly][r], bytes[driver.ForkJoin][r], bytes[driver.DataFlow][r])
		}
	}
}
