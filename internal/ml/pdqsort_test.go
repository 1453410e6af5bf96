package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// byValue is sortByValue's reference comparator: slices.SortFunc with it
// must leave what sortByValue leaves. It is negative exactly when
// a.v < b.v, the only question pdqsort asks of it.
func byValue(a, b valueTarget) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// sameSort sorts a copy of in with sortByValue and another with
// slices.SortFunc(…, byValue) and reports the first position where the
// two differ in the bits of v or y. "" means identical.
func sameSort(in []valueTarget) string {
	got, want := slices.Clone(in), slices.Clone(in)
	sortByValue(got)
	slices.SortFunc(want, byValue)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.v) != math.Float64bits(w.v) || math.Float64bits(g.y) != math.Float64bits(w.y) {
			return fmt.Sprintf("position %d of %d: {v %v, y %v}, want {v %v, y %v}", i, len(in), g.v, g.y, w.v, w.y)
		}
	}
	return ""
}

// pairsOf gives each value its position as its target, so a sort that
// moves tied values differently gives a different sequence of targets.
func pairsOf(vs []float64) []valueTarget {
	ps := make([]valueTarget, len(vs))
	for i, v := range vs {
		ps[i] = valueTarget{v, float64(i)}
	}
	return ps
}

// adversary builds an input of n values on which pdqsort picks a bad pivot
// at every partition until it falls back to heapSort: McIlroy's "A Killer
// Adversary for Quicksort" run against slices.SortFunc. The sort orders
// item ids. Every value starts as gas, above all others, and when two gas
// items meet, one is frozen at the next value: the second only if it is
// the pivot candidate (the gas item last compared), else the first.
// (McIlroy freezes the second unless the first is the candidate; against
// pdqsort that answers the first pivot choice "already sorted", and the
// scan that follows freezes every item in order.) With group > 1 each
// value is shared by group items in turn, so heapSort meets ties too.
// Values never change once frozen, so replaying the final values makes
// the same deterministic sort ask the same questions and get the same
// answers.
func adversary(n, group int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, -1
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if val[a] == gas && val[b] == gas {
			if b == candidate {
				val[b] = solid / group
			} else {
				val[a] = solid / group
			}
			solid++
		}
		if val[a] == gas {
			candidate = a
		} else if val[b] == gas {
			candidate = b
		}
		return val[a] - val[b]
	})
	vs := make([]float64, n)
	for i, v := range val {
		vs[i] = float64(v)
	}
	return vs
}

// sortInputs are the shapes pdqsort treats differently: ties over a
// 3-value alphabet, all equal, sorted, nearly sorted, reversed, sawtooth,
// organ pipe, distinct random values and mixes of -0 and +0.
func sortInputs(n int, rng *rand.Rand) map[string][]float64 {
	in := map[string][]float64{}
	add := func(name string, f func(i int) float64) {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = f(i)
		}
		in[name] = vs
	}
	negZero := math.Copysign(0, -1)
	add("alphabet3", func(int) float64 { return float64(rng.Intn(3)) })
	add("equal", func(int) float64 { return 2.5 })
	add("sorted", func(i int) float64 { return float64(i) })
	add("reversed", func(i int) float64 { return float64(n - i) })
	add("sawtooth", func(i int) float64 { return float64(i % 7) })
	add("organpipe", func(i int) float64 { return float64(min(i, n-1-i)) })
	add("random", func(int) float64 { return rng.Float64() })
	add("zeros", func(int) float64 { return []float64{0, negZero}[rng.Intn(2)] })
	add("zeromix", func(int) float64 { return []float64{0, negZero, -1, 1}[rng.Intn(4)] })
	nearly := slices.Clone(in["sorted"])
	for k := 0; k < 3 && n > 1; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		nearly[i], nearly[j] = nearly[j], nearly[i]
	}
	in["nearlysorted"] = nearly
	return in
}

// TestSortMatchesSortFunc is the differential test of Fit's sort: on
// every input it must leave the sequence, ties included, that
// slices.SortFunc leaves, so every forest is the one the toolchain's
// sort would grow. Lengths 0-13 cross the insertion-sort boundary; the
// adversary's input exhausts the bad-pivot limit, so heapSort and
// breakPatterns run.
func TestSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{14, 20, 49, 50, 51, 64, 100, 257, 1000, 2500}
	for n := 0; n <= 13; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for name, vs := range sortInputs(n, rng) {
			if d := sameSort(pairsOf(vs)); d != "" {
				t.Errorf("%s/%d: %s", name, n, d)
			}
		}
	}
	for _, n := range []int{100, 3000} {
		for _, group := range []int{1, 3} {
			if d := sameSort(pairsOf(adversary(n, group))); d != "" {
				t.Errorf("adversary/%d/group%d: %s", n, group, d)
			}
		}
	}
}

// FuzzSortMatchesSortFunc runs TestSortMatchesSortFunc's check on fuzzer
// bytes: each byte is one value in [-63, 63], with byte 3 giving -0, so
// inputs are heavy with ties.
func FuzzSortMatchesSortFunc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"))
	ramp := make([]byte, 256)
	for i := range ramp {
		ramp[i] = byte(255 - i)
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data))
		for i, b := range data {
			vs[i] = float64(b >> 2)
			if b&3 == 3 {
				vs[i] = -vs[i]
			}
		}
		if d := sameSort(pairsOf(vs)); d != "" {
			t.Fatal(d)
		}
	})
}
