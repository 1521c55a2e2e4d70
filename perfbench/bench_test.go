package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json this
// command must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestOutputMatchesBenchmarkJSON runs amr-node briefly in both modes
// and checks that the last output line names exactly the metrics, with
// exactly the units, that BENCHMARK.json declares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the amr-node workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for mode, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out strings.Builder
		args := []string{"--workload", "amr-node", "--seed", "1", "--seconds", "1", "--trace", mode, "--out", t.TempDir()}
		if code := run(args, &out); code != 0 {
			t.Fatalf("--trace %s: exit %d\n%s", mode, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]value
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("--trace %s: last line: %v", mode, err)
		}
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json declares %d", mode, len(got.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := got.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("--trace %s: metric %s missing", mode, m.Name)
			case v.Unit != m.Unit:
				t.Errorf("--trace %s: metric %s in %q, BENCHMARK.json says %q", mode, m.Name, v.Unit, m.Unit)
			}
		}
	}
}
