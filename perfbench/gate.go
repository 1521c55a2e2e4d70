package main

import (
	"fmt"
	"math"

	"miniamr/internal/harness"
)

// rankCountTolerance is the relative checksum difference allowed between
// runs at different rank counts, whose reduction trees and partitions
// differ in the last bits — the tolerance the applications'
// TestRankCountsAgreeWithinTolerance uses.
const rankCountTolerance = 1e-9

// gate is the per-job correctness check. The first passing job at each
// rank count becomes that rank count's reference; a job fails when it
// returned an error, when its checksum history is not bit-identical to
// the reference at its own rank count or not within rankCountTolerance of
// the references at other rank counts, when its final block count differs
// from the first job's, or when the arena ends with live buffers or
// leases.
type gate struct {
	refs              []gateRef
	blocks            int
	attempted, failed int
}

type gateRef struct {
	ranks int
	sums  [][]float64
}

// check records one job outcome and returns the reason it failed, or nil.
func (g *gate) check(ranks int, m harness.Metrics, runErr error) error {
	g.attempted++
	err := g.verify(ranks, m, runErr)
	if err != nil {
		g.failed++
	}
	return err
}

func (g *gate) verify(ranks int, m harness.Metrics, runErr error) error {
	if runErr != nil {
		return runErr
	}
	if len(m.Checksums) == 0 {
		return fmt.Errorf("no checksum history")
	}
	if m.Arena.Live != 0 || m.Arena.LeasesLive != 0 {
		return fmt.Errorf("arena ended with %d live buffers and %d live leases", m.Arena.Live, m.Arena.LeasesLive)
	}
	if g.blocks == 0 {
		g.blocks = m.FinalBlocks
	} else if m.FinalBlocks != g.blocks {
		return fmt.Errorf("final blocks %d, want %d", m.FinalBlocks, g.blocks)
	}
	same := false
	for _, ref := range g.refs {
		if ref.ranks == ranks {
			same = true
			if err := compareSums(m.Checksums, ref.sums, 0); err != nil {
				return fmt.Errorf("checksums differ from the %d-rank reference: %w", ranks, err)
			}
		} else if err := compareSums(m.Checksums, ref.sums, rankCountTolerance); err != nil {
			return fmt.Errorf("%d-rank checksums disagree with the %d-rank reference: %w", ranks, ref.ranks, err)
		}
	}
	if !same {
		g.refs = append(g.refs, gateRef{ranks: ranks, sums: m.Checksums})
	}
	return nil
}

// compareSums compares two checksum histories: bit for bit when tol is
// 0, else within tol relative error.
func compareSums(got, want [][]float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d checksum stages, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("stage %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			g := got[i][j]
			if tol == 0 {
				if math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Errorf("stage %d var %d: %v, want %v", i, j, g, w)
				}
				continue
			}
			if rel := math.Abs(g-w) / math.Max(math.Abs(w), 1e-12); !(rel <= tol) {
				return fmt.Errorf("stage %d var %d: %v, want %v (relative error %g)", i, j, g, w, rel)
			}
		}
	}
	return nil
}
