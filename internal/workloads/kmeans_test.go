package workloads

import (
	"math"
	"testing"

	"avr/internal/sim"
)

// nearestByScan is the centroid loop the midpoint search replaced, kept
// as its oracle: the nearest centroid, the first on a tie, is the
// minimum of |v-c|<<4 | k over at most 16 centroids in any order.
func nearestByScan(cent []int64, v int64) int {
	least := int64(math.MaxInt64)
	for k, ck := range cent {
		d := v - ck
		d = (d ^ d>>63) - d>>63
		least = min(least, d<<4|int64(k))
	}
	return int(least & 15)
}

// nearestByMidpoints is the kernel's search for one point.
func nearestByMidpoints(cent []int64, v int64) int {
	thr, target := midpoints(cent, nil, nil)
	return target[countBelow(thr, 2*v)]
}

func TestNearestCentroidMatchesScan(t *testing.T) {
	cases := []struct {
		cent []int64
		v    int64
		want int
	}{
		{[]int64{0, 5, 5, 10}, 6, 1}, // a run of equal centroids maps to its first
		{[]int64{0, 5, 5, 10}, 9, 3},
		{[]int64{0, 5, 5, 10}, 5, 1},
		{[]int64{0, 4, 10}, 2, 0}, // on a midpoint: the lower centroid
		{[]int64{0, 4, 10}, 7, 1},
		{[]int64{0, 4, 10}, 8, 2},
		{[]int64{0, 5}, 2, 0}, // an odd sum: no point sits on the midpoint
		{[]int64{0, 5}, 3, 1},
		{[]int64{100, 200, 300}, -1 << 40, 0}, // below the first centroid
		{[]int64{100, 200, 300}, 1 << 40, 2},  // above the last
		{[]int64{7, 7, 7}, 0, 0},
		{[]int64{7, 7, 7}, 99, 0},
		{[]int64{-30, -10, 0, 0, 0, 20}, -20, 0},
		{[]int64{-30, -10, 0, 0, 0, 20}, -5, 1},
		{[]int64{-30, -10, 0, 0, 0, 20}, 10, 2},
		{[]int64{-30, -10, 0, 0, 0, 20}, 11, 5},
		{[]int64{42}, -7, 0},
	}
	for _, c := range cases {
		if got := nearestByMidpoints(c.cent, c.v); got != c.want {
			t.Errorf("midpoints(%v, %d) = %d, want %d", c.cent, c.v, got, c.want)
		}
		if got := nearestByScan(c.cent, c.v); got != c.want {
			t.Errorf("scan(%v, %d) = %d, want %d", c.cent, c.v, got, c.want)
		}
	}

	// layout's starting centroids over the whole elevation range, in Q.8.
	m := &KMeans{}
	m.layout(sim.New(sim.PresetSmall(sim.Baseline)).Space, ScaleSmall)
	checkAgainstScan(t, m.cent, 0)
	for v := int64(0); v < 1500*256; v += 7 {
		if got, want := nearestByMidpoints(m.cent, v), nearestByScan(m.cent, v); got != want {
			t.Fatalf("layout's centroids, v=%d: midpoints %d, scan %d", v, got, want)
		}
	}
}

// checkAgainstScan compares the two searches on every point within 2 of
// a centroid or of a midpoint of two centroids, and on v.
func checkAgainstScan(t *testing.T, cent []int64, v int64) {
	t.Helper()
	points := []int64{v}
	for i, a := range cent {
		for _, b := range cent[i:] {
			for d := int64(-2); d <= 2; d++ {
				points = append(points, a+d, (a+b)/2+d)
			}
		}
	}
	for _, p := range points {
		if got, want := nearestByMidpoints(cent, p), nearestByScan(cent, p); got != want {
			t.Fatalf("centroids %v, v=%d: midpoints %d, scan %d", cent, p, got, want)
		}
	}
}

// FuzzNearestCentroid holds the midpoint search to the scan on sorted
// centroid sets: up to 16 centroids from base, each the last plus a
// step byte scaled by scale's low bits (a zero step is a duplicate).
func FuzzNearestCentroid(f *testing.F) {
	f.Add(int64(0), []byte{5, 0, 5}, uint8(0), int64(6))
	f.Add(int64(-3), []byte{0, 0, 0}, uint8(0), int64(-3))
	f.Add(int64(102400), []byte{44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44}, uint8(8), int64(200000))
	f.Add(int64(1<<39), []byte{255, 1, 0, 128}, uint8(20), int64(-1<<40))
	f.Fuzz(func(t *testing.T, base int64, steps []byte, scale uint8, v int64) {
		const limit = 1 << 40
		base %= limit
		v %= 2 * limit
		if len(steps) > 15 {
			steps = steps[:15]
		}
		cent := []int64{base}
		for _, s := range steps {
			cent = append(cent, cent[len(cent)-1]+int64(s)<<(scale%24))
		}
		checkAgainstScan(t, cent, v)
	})
}

func TestMidpointsRefusesUnsortedCentroids(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("midpoints accepted centroids out of order")
		}
	}()
	midpoints([]int64{0, 10, 5}, nil, nil)
}
