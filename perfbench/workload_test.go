package main

import (
	"math"
	"reflect"
	"testing"

	"miniamr/internal/harness"
)

func TestSeedGeneratesValidReproducibleInput(t *testing.T) {
	a, b := amrConfig(7), amrConfig(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different configs")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated config fails Validate: %v", err)
	}
	if c := amrConfig(8); reflect.DeepEqual(amrConfig(7), c) {
		t.Fatal("seeds 7 and 8 generated the same config")
	}
}

func TestSeedJitterStaysWithinBounds(t *testing.T) {
	preset := harness.FourSpheres(amrRoot, amrScale)
	for seed := uint64(1); seed <= 50; seed++ {
		cfg := amrConfig(seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, o := range cfg.Objects {
			p := preset.Objects[i]
			for d := range o.Center {
				if diff := math.Abs(o.Center[d] - p.Center[d]); diff > centreJitter {
					t.Errorf("seed %d sphere %d: centre moved %v", seed, i, diff)
				}
			}
			if r := o.Size[0]/p.Size[0] - 1; math.Abs(r) > radiusJitter {
				t.Errorf("seed %d sphere %d: radius changed by %v", seed, i, r)
			}
			if r := o.Move[0]/p.Move[0] - 1; math.Abs(r) > speedJitter {
				t.Errorf("seed %d sphere %d: speed changed by %v", seed, i, r)
			}
		}
	}
}

func TestWorkloadsGiveEveryVariantTheSameCores(t *testing.T) {
	for _, w := range workloads {
		cores := -1
		for _, v := range harness.Variants {
			s := w.shapeOf(v)
			c := s.ranks() * s.coresPerRank
			if cores >= 0 && c != cores {
				t.Errorf("%s: %s gets %d cores, others %d", w.name, v, c, cores)
			}
			cores = c
		}
		if cores > 2 {
			t.Errorf("%s: %d cores exceed the host's two", w.name, cores)
		}
	}
}
