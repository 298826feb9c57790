package workloads

import (
	"reflect"
	"sync"
	"testing"

	"avr/internal/mem"
	"avr/internal/sim"
)

// forget drops the image of (bench, sc), so the next Setup of it on a
// fresh space runs the fill.
func forget(bench string, sc Scale) {
	images.Lock()
	delete(images.m, imageKey{bench, sc})
	images.Unlock()
}

func imaged(bench string, sc Scale) bool {
	images.Lock()
	defer images.Unlock()
	_, ok := images.m[imageKey{bench, sc}]
	return ok
}

// coldSetup is Setup without the image: layout, then fill, on a fresh
// system's space, after before (when not nil) has run on that space.
func coldSetup(t *testing.T, bench string, before func(*mem.Space)) (Workload, *sim.System) {
	t.Helper()
	w, err := ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.New(sim.PresetSmall(sim.Baseline))
	if before != nil {
		before(sys.Space)
	}
	w.(staged).layout(sys.Space, ScaleSmall)
	w.(staged).fill(sys.Space)
	return w, sys
}

// TestSetupImageIsColdSetup holds every Setup that restores the fill's
// image to a cold Setup: the same workload struct, and the same space —
// bytes, break and page annotations. Concurrent Setups of one key share
// one fill (run it with -race), and a space that allocated before Setup
// neither takes the image nor leaves one.
func TestSetupImageIsColdSetup(t *testing.T) {
	for _, w := range All() {
		name := w.Name()
		t.Run(name, func(t *testing.T) {
			wantW, wantSys := coldSetup(t, name, nil)

			forget(name, ScaleSmall)
			const setups = 4 // one fills, the others restore its image
			ws := make([]Workload, setups)
			spaces := make([]*mem.Space, setups)
			var wg sync.WaitGroup
			for i := range ws {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ws[i], _ = ByName(name)
					sys := sim.New(sim.PresetSmall(sim.Baseline))
					ws[i].Setup(sys, ScaleSmall)
					spaces[i] = sys.Space
				}(i)
			}
			wg.Wait()
			if !imaged(name, ScaleSmall) {
				t.Fatal("no image kept after Setup on a fresh space")
			}
			for i := range ws {
				if !reflect.DeepEqual(ws[i], wantW) {
					t.Errorf("Setup %d: workload %+v, cold Setup %+v", i, ws[i], wantW)
				}
				if !reflect.DeepEqual(spaces[i], wantSys.Space) {
					t.Errorf("Setup %d: space differs from a cold Setup's", i)
				}
			}

			// A space that allocated first keeps what it wrote, gets what
			// a cold Setup after the same allocation gets, and leaves no
			// image of its own allocation for a fresh space to load.
			var mine uint64
			allocFirst := func(s *mem.Space) {
				mine = s.Alloc(64, 64)
				s.Store32(mine, 0xFEED)
			}
			wantW, wantSys = coldSetup(t, name, allocFirst)
			forget(name, ScaleSmall)
			sys := sim.New(sim.PresetSmall(sim.Baseline))
			allocFirst(sys.Space)
			got, _ := ByName(name)
			got.Setup(sys, ScaleSmall)
			if imaged(name, ScaleSmall) {
				t.Error("a space that allocated first left an image")
			}
			if sys.Space.Load32(mine) != 0xFEED {
				t.Error("Setup overwrote the space's own allocation")
			}
			if !reflect.DeepEqual(got, wantW) || !reflect.DeepEqual(sys.Space, wantSys.Space) {
				t.Error("Setup after an allocation differs from a cold Setup after it")
			}
		})
	}
}
