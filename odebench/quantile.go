package main

import (
	"math"
	"math/rand"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers,
// not a percentile.
const minBeyond = 10

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// It selects in expected linear time and reorders xs. ok is false when
// xs is empty.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return selectKth(xs, rank(len(xs), q)), true
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rank(n, q) >= minBeyond
}

// selectKth returns the k-th smallest element (0-based) of xs,
// partially reordering it (Hoare selection with a seeded pivot, so a
// run's result never depends on global randomness).
func selectKth(xs []float64, k int) float64 {
	rng := rand.New(rand.NewSource(int64(len(xs))))
	lo, hi := 0, len(xs)-1
	for lo < hi {
		p := xs[lo+rng.Intn(hi-lo+1)]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}
