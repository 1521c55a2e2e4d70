package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"miniamr/internal/harness"
)

func metricsWith(sums [][]float64, blocks int) harness.Metrics {
	return harness.Metrics{Checksums: sums, FinalBlocks: blocks}
}

func clone(sums [][]float64) [][]float64 {
	out := make([][]float64, len(sums))
	for i, s := range sums {
		out[i] = append([]float64(nil), s...)
	}
	return out
}

var refSums = [][]float64{{94027.23990605048, 12.5}, {94030.5, 12.25}}

func TestGatePassesIdenticalJobs(t *testing.T) {
	var g gate
	for i := 0; i < 3; i++ {
		if err := g.check(2, metricsWith(clone(refSums), 408), nil); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if g.attempted != 3 || g.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 3 and 0", g.attempted, g.failed)
	}
}

func TestGateRejectsPerturbedChecksum(t *testing.T) {
	var g gate
	if err := g.check(2, metricsWith(clone(refSums), 408), nil); err != nil {
		t.Fatal(err)
	}
	bad := clone(refSums)
	bad[1][0] = math.Nextafter(bad[1][0], math.Inf(1)) // one ulp
	if err := g.check(2, metricsWith(bad, 408), nil); err == nil {
		t.Fatal("a one-ulp checksum change at the same rank count passed the gate")
	}
	if g.attempted != 2 || g.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", g.attempted, g.failed)
	}
}

func TestGateToleratesLastBitsAcrossRankCounts(t *testing.T) {
	var g gate
	if err := g.check(2, metricsWith(clone(refSums), 408), nil); err != nil {
		t.Fatal(err)
	}
	// The measured MPI-only (2 ranks) vs hybrid (1 rank) difference.
	near := clone(refSums)
	near[0][0] = 94027.23990605053
	if err := g.check(1, metricsWith(near, 408), nil); err != nil {
		t.Fatalf("last-bit difference across rank counts failed: %v", err)
	}
	// The 1-rank job is now that rank count's reference: exact from here.
	if err := g.check(1, metricsWith(clone(refSums), 408), nil); err == nil {
		t.Fatal("a 1-rank job differing from the 1-rank reference passed")
	}
	far := clone(refSums)
	far[0][0] *= 1 + 1e-6
	if err := g.check(3, metricsWith(far, 408), nil); err == nil {
		t.Fatal("a 1e-6 relative difference across rank counts passed")
	}
}

func TestGateRejectsOtherFailures(t *testing.T) {
	leak := metricsWith(clone(refSums), 408)
	leak.Arena.LeasesLive = 1
	cases := map[string]struct {
		m   harness.Metrics
		err error
	}{
		"run error":        {metricsWith(clone(refSums), 408), errors.New("boom")},
		"no checksums":     {metricsWith(nil, 408), nil},
		"block count":      {metricsWith(clone(refSums), 415), nil},
		"live arena lease": {leak, nil},
		"short history":    {metricsWith(clone(refSums[:1]), 408), nil},
	}
	for name, c := range cases {
		var g gate
		if err := g.check(2, metricsWith(clone(refSums), 408), nil); err != nil {
			t.Fatal(err)
		}
		if err := g.check(2, c.m, c.err); err == nil {
			t.Errorf("%s: passed the gate", name)
		}
		if g.failed != 1 {
			t.Errorf("%s: failed = %d, want 1", name, g.failed)
		}
	}
}

func TestResultLastLineIsTheContractObject(t *testing.T) {
	res := result{Correct: true, Attempted: 3}
	res.add("mpionly_s", "s", []float64{1.5, 1.25, 1.75})
	res.addValue("setup_s", "s", 0.0125)
	var sb strings.Builder
	if err := res.print(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"mpionly_s":{"value":1.5,"unit":"s"},"setup_s":{"value":0.0125,"unit":"s"}}}`
	if got := lines[len(lines)-1]; got != want {
		t.Fatalf("last line\n got %s\nwant %s", got, want)
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "amr-node", "--trace", "2"},
		{"--workload", "amr-node", "--seconds", "0"},
	} {
		var sb strings.Builder
		if code := run(args, &sb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
