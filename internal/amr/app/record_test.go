package app

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"miniamr/internal/driver"
)

var update = flag.Bool("update", false, "rewrite the recorded task-graph goldens under testdata/recorded")

// recordOptions lists miniAMR's per-stage dependency key types — buffer
// sections, checksum slots and refinement transfer slots, each produced
// and consumed within a stage; blockKey is persistent block state — and
// folds message tags into their protocol class.
var recordOptions = driver.RecordOptions{
	StageKeys: []string{"app.sectKey", "app.slotKey", "app.xferKey"},
	TagClass: func(tag int) string {
		switch {
		case tag == exchangeAck:
			return "exchange-ack"
		case tag == exchangeID:
			return "exchange-id"
		case tag >= exchangeData:
			return "exchange-data"
		}
		return fmt.Sprintf("ghost-%d", tag>>20)
	},
}

// recordPreset is the committed recording scale: two ranks splitting a
// 1x1x4 root mesh along z (so the last exchange direction crosses
// ranks), one refinement level, two variable groups, a checksum every
// timestep and a refinement every second one, whose rebalancing moves
// blocks between the ranks.
func recordPreset() Config {
	cfg := testConfig()
	cfg.RootBlocks = [3]int{1, 1, 4}
	cfg.MaxLevel = 1
	cfg.StagesPerTimestep = 2
	cfg.ChecksumEvery = 2
	return cfg
}

// record runs one variant of the preset on two ranks of two cores under
// a graph recorder.
func record(t *testing.T, v driver.Variant) (*driver.GraphRecorder, []driver.Result) {
	t.Helper()
	cfg := recordPreset()
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

// TestRecordedGraphStructure pins the data-flow pipeline's backbone,
// independent of instance counts: packed sections feed sends, received
// sections feed unpacks, ghost fills feed the stencil and the stencil
// feeds the local checksum.
func TestRecordedGraphStructure(t *testing.T) {
	rec, _ := record(t, driver.DataFlow)
	for r := 0; r < 2; r++ {
		flow := make(map[string]bool)
		for _, e := range rec.Rank(r).Edges() {
			if e.Kind == "flow" {
				flow[e.From+" -> "+e.To] = true
			}
		}
		for _, want := range []string{"pack -> send", "recv -> unpack", "unpack -> stencil", "stencil -> cksum-local"} {
			if !flow[want] {
				t.Errorf("rank %d: no %s flow edge", r, want)
			}
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
