package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// orderOf unpacks an order into its ways, MRU first.
func orderOf(o order, ways int) []int {
	out := make([]int, ways)
	for p := range out {
		out[p] = int(o>>(4*p)) & 15
	}
	return out
}

// TestOrderMatchesSlice holds touch and retire, at 1 to 16 ways, to the
// same moves on a slice of way numbers, from every position.
func TestOrderMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for ways := 1; ways <= maxWays; ways++ {
		o := newOrder(ways)
		want := make([]int, ways)
		for p := range want {
			want[p] = ways - 1 - p
		}
		if got := orderOf(o, ways); !slices.Equal(got, want) {
			t.Fatalf("newOrder(%d) = %v, want %v", ways, got, want)
		}
		for i := 0; i < 2000; i++ {
			w := rng.Intn(ways)
			p := slices.Index(want, w)
			want = slices.Delete(want, p, p+1)
			if rng.Intn(4) == 0 {
				q := rng.Intn(ways)
				o = o.retire(w, ways, ways-1-q)
				want = slices.Insert(want, q, w)
			} else {
				o = o.touch(w)
				want = slices.Insert(want, 0, w)
			}
			if got := orderOf(o, ways); !slices.Equal(got, want) {
				t.Fatalf("%d ways, step %d (way %d from position %d): %v, want %v", ways, i, w, p, got, want)
			}
			if o>>(4*ways-1)>>1 != 0 {
				t.Fatalf("%d ways: order %#x uses nibbles past its ways", ways, uint64(o))
			}
		}
	}
}
