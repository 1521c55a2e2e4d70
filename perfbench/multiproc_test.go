package main

import (
	"os"
	"testing"

	"miniamr/internal/harness"
)

func TestMain(m *testing.M) {
	// amr-2proc re-executes this test binary as its children.
	harness.MaybeRunWireChild()
	os.Exit(m.Run())
}

// TestTwoProcReproducesInProcess: every variant of amr-2proc gives the
// checksum history and block count of the same 2-rank cluster run in
// one process, bit for bit.
func TestTwoProcReproducesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full amr-2proc problem")
	}
	w, ok := lookupWorkload("amr-2proc")
	if !ok {
		t.Fatal("no amr-2proc workload")
	}
	t.Setenv("GOMAXPROCS", childGOMAXPROCS)
	for _, v := range harness.Variants {
		spec := w.spec(3, v)
		multi, err := harness.Run(spec)
		if err != nil {
			t.Fatalf("%s 2-process: %v", v, err)
		}
		spec.Procs = 0
		single, err := harness.Run(spec)
		if err != nil {
			t.Fatalf("%s in-process: %v", v, err)
		}
		var g gate
		if err := g.check(2, single, nil); err != nil {
			t.Fatalf("%s in-process: %v", v, err)
		}
		if err := g.check(2, multi, nil); err != nil {
			t.Errorf("%s: 2-process run differs from the in-process run: %v", v, err)
		}
	}
}
