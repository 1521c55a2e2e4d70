package harness

import (
	"testing"

	"miniamr/internal/driver"
	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
)

// TestDynamicWidthWithinStaticModel cross-checks a run's measured
// concurrency against the logical task graph the same run declared: a
// driver.GraphRecorder records each rank's DAG and the ready-set
// high-water mark of a HYDRO data-flow run.
//
// Two properties tie the measurement to the graph. Upward: any ready set
// is an antichain of the logical DAG, so the dynamic high-water must stay
// at or below the DAG's exact maximum antichain. Downward: the CFL scan
// spawns one heavy task per owned tile with no dependencies between
// them, so all of them are ready before the first one finishes — the
// meter must observe at least the tile count, which exceeds the worker
// count. That surplus of ready work over cores is exactly the slack the
// data-flow scheduler exploits and the serial variant forgoes.
//
// The measurement is a lower bound on the true concurrency: cheap tasks
// (ghost copies) are consumed as fast as the main goroutine can spawn
// them, so the meter does not see the DAG's full cross-phase antichain.
func TestDynamicWidthWithinStaticModel(t *testing.T) {
	// The run decomposes a 4x4 tiling over 2 ranks in contiguous rows, so
	// each rank owns 8 tiles.
	const workers, tiles = 4, 8
	rec := driver.NewGraphRecorder(driver.DataFlow, 2, driver.RecordOptions{})
	cfg := hydro.Config{
		NX: 128, NY: 128, TilesX: 4, TilesY: 4,
		Timesteps: 6, ChecksumEvery: 4,
		TaskObserver: rec.TaskObserver,
	}
	if _, err := Run(RunSpec{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: workers,
		Net: simnet.None(), Job: hydro.Job(cfg), Variant: driver.DataFlow,
	}); err != nil {
		t.Fatal(err)
	}

	for rank := 0; rank < 2; rank++ {
		g := rec.Rank(rank)
		t.Logf("rank %d: %d tasks, ready-set high-water %d (maximum antichain %d)",
			rank, g.Work(), g.HighWater(), g.Antichain())
		if g.Work() == 0 {
			t.Fatalf("rank %d: recorder saw no tasks — observer not plumbed through", rank)
		}
		if g.HighWater() > g.Antichain() {
			t.Errorf("rank %d: dynamic ready-set high-water %d exceeds the DAG's maximum antichain %d",
				rank, g.HighWater(), g.Antichain())
		}
		if g.HighWater() < tiles {
			t.Errorf("rank %d: dynamic ready-set high-water %d below the %d owned tiles — "+
				"the CFL scan's concurrency was not realized", rank, g.HighWater(), tiles)
		}
		if g.HighWater() <= workers {
			t.Errorf("rank %d: dynamic ready-set high-water %d does not exceed the %d workers — "+
				"no surplus ready work for the scheduler to exploit", rank, g.HighWater(), workers)
		}
	}
}
