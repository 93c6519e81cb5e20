package statdist

// Differential tests pinning the optimized merge-walk kernels to the
// retained naive oracle (oracle.go). The rank statistics and
// Wasserstein must agree bit for bit — they evaluate the same terms in
// the same order — while the energy distance's prefix-sum
// reformulation is held to 1e-12 relative error against the O(n·m)
// pairwise oracle.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomSample draws a sample stressing the kernels' edge cases: ties
// and duplicates (values snapped to a coarse grid), negative values and
// exact zeros.
func randomSample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0: // coarse grid -> guaranteed ties within and across samples
			out[i] = float64(rng.Intn(5))
		case 1:
			out[i] = -float64(rng.Intn(3))
		default:
			out[i] = rng.NormFloat64() * 10
		}
	}
	return out
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	scale := math.Max(math.Abs(want), 1)
	return math.Abs(got-want) / scale
}

// sameValue is float equality that also equates two NaNs (infinite
// inputs drive every formulation to NaN the same way).
func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// ranks returns RankBelow(ref, v) for every v of b.
func ranks(ref, b []float64) []int32 {
	lo := make([]int32, len(b))
	for k, v := range b {
		lo[k] = int32(RankBelow(ref, v))
	}
	return lo
}

// checkAgainstOracle asserts the sorted kernel matches the naive
// oracle on one input pair, and that the rank path of the ECDF measures
// matches the sorted kernel.
func checkAgainstOracle(t *testing.T, m Measure, a, b []float64) {
	t.Helper()
	want, err := NaiveDistance(m, a, b)
	if err != nil {
		t.Fatalf("%s: oracle: %v", m.Name(), err)
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	got, err := m.DistanceSorted(sa, sb)
	if err != nil {
		t.Fatalf("%s: DistanceSorted: %v", m.Name(), err)
	}
	if rm, ok := m.(RankedMeasure); ok {
		if gotRanked := rm.DistanceRanked(sa, sb, ranks(sa, sb)); math.Float64bits(gotRanked) != math.Float64bits(got) {
			t.Fatalf("%s: DistanceRanked %v != DistanceSorted %v (must be bit-identical)\na=%v\nb=%v", m.Name(), gotRanked, got, a, b)
		}
	}
	if _, isEnergy := m.(Energy); isEnergy {
		if sameValue(got, want) {
			return
		}
		if e := relErr(got, want); e > 1e-12 {
			t.Fatalf("%s: optimized %v vs naive %v (rel err %v > 1e-12)\na=%v\nb=%v", m.Name(), got, want, e, a, b)
		}
		return
	}
	if !sameValue(got, want) {
		t.Fatalf("%s: optimized %v != naive %v (must be bit-identical)\na=%v\nb=%v", m.Name(), got, want, a, b)
	}
}

func TestDifferentialRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		na := 1 + rng.Intn(60)
		nb := 1 + rng.Intn(60)
		a := randomSample(rng, na)
		b := randomSample(rng, nb)
		for _, m := range All() {
			checkAgainstOracle(t, m, a, b)
		}
	}
}

func TestDifferentialEdgeCases(t *testing.T) {
	cases := [][2][]float64{
		{{1}, {1}},                             // single elements, tied
		{{1}, {2}},                             // single elements, distinct
		{{1, 1, 1, 1}, {1, 1, 1}},              // all duplicates
		{{0, 0, 0}, {-0.0, 0, 0}},              // signed zeros
		{{1, 2, 3}, {10, 11, 12}},              // disjoint supports
		{{1, 2, 2, 3}, {2, 2, 2, 4}},           // heavy cross-sample ties
		{{-5, -1, 0, 1, 5}, {-5, -1, 0, 1, 5}}, // identical samples
		{{math.Inf(1), 1}, {1, 2}},             // infinity in a sample
		{{math.Inf(-1), 0, math.Inf(1)}, {math.Inf(-1), math.Inf(1), math.Inf(1)}},
		{{-0.0, 1, 1, 2}, {0, 0, 1}}, // -0/+0 ties across samples
	}
	for _, c := range cases {
		for _, m := range All() {
			checkAgainstOracle(t, m, c[0], c[1])
		}
	}
}

// TestDifferentialSingleElementWindows drills the smallest windows the
// safeml monitor can produce.
func TestDifferentialSingleElementWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		ref := randomSample(rng, 1+rng.Intn(200))
		win := []float64{rng.NormFloat64() * 5}
		for _, m := range All() {
			checkAgainstOracle(t, m, ref, win)
			checkAgainstOracle(t, m, win, ref)
		}
	}
}

func TestRankBelow(t *testing.T) {
	s := []float64{math.Inf(-1), -1, -0.0, 0, 0, 2, 2, 2, math.Inf(1)}
	for _, c := range []struct {
		v    float64
		want int
	}{
		{math.Inf(-1), 0}, {-2, 1}, {-1, 1}, {-0.5, 2}, {0, 2},
		{math.Copysign(0, -1), 2}, {1, 5}, {2, 5}, {3, 8}, {math.Inf(1), 8},
	} {
		if got := RankBelow(s, c.v); got != c.want {
			t.Errorf("RankBelow(%v) = %d, want %d", c.v, got, c.want)
		}
		if got, want := RankBelow(s, c.v), sort.SearchFloat64s(s, c.v); got != want {
			t.Errorf("RankBelow(%v) = %d, SearchFloat64s = %d", c.v, got, want)
		}
	}
	if got := RankBelow(nil, 1); got != 0 {
		t.Errorf("RankBelow(nil) = %d", got)
	}
}

// TestPermutationPValueMatchesUnhoistedLoop re-runs the permutation
// test with a deliberately naive in-test loop on the same RNG stream
// and asserts the hoisted-buffer implementation returns the same
// p-value — the buffer reuse must not change a single comparison.
func TestPermutationPValueMatchesUnhoistedLoop(t *testing.T) {
	baseRng := rand.New(rand.NewSource(99))
	a := randomSample(baseRng, 40)
	b := randomSample(baseRng, 55)
	for _, m := range All() {
		const rounds = 60
		p1, obs1, err := PermutationPValue(m, a, b, rounds, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		// Reference loop: shuffle and call Distance on fresh copies.
		rng := rand.New(rand.NewSource(5))
		obs2, err := Distance(m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		pooled := append(append([]float64(nil), a...), b...)
		exceed := 0
		for r := 0; r < rounds; r++ {
			rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
			d, err := Distance(m, pooled[:len(a)], pooled[len(a):])
			if err != nil {
				t.Fatal(err)
			}
			if d >= obs2 {
				exceed++
			}
		}
		p2 := (float64(exceed) + 1) / (float64(rounds) + 1)
		if obs1 != obs2 || p1 != p2 {
			t.Fatalf("%s: hoisted (p=%v obs=%v) != reference (p=%v obs=%v)", m.Name(), p1, obs1, p2, obs2)
		}
	}
}

// FuzzMeasuresDifferential feeds fuzzer-shaped byte strings as two
// float samples through every optimized kernel and the naive oracle.
func FuzzMeasuresDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 240, 63, 0, 0, 0, 0, 0, 0, 240, 63}, []byte{0, 0, 0, 0, 0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		decode := func(raw []byte) []float64 {
			var out []float64
			for len(raw) >= 8 && len(out) < 64 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
				raw = raw[8:]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				// Keep magnitudes sane so the quadratic oracle's sums
				// stay finite.
				if math.Abs(v) > 1e9 {
					v = math.Mod(v, 1e9)
				}
				out = append(out, v)
			}
			return out
		}
		a, b := decode(rawA), decode(rawB)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		sa, sb := sortedCopy(a), sortedCopy(b)
		for _, m := range All() {
			want, err := NaiveDistance(m, a, b)
			if err != nil {
				t.Fatalf("%s: oracle: %v", m.Name(), err)
			}
			got, err := m.DistanceSorted(sa, sb)
			if err != nil {
				t.Fatalf("%s: DistanceSorted: %v", m.Name(), err)
			}
			tol := 0.0
			if _, isEnergy := m.(Energy); isEnergy {
				tol = 1e-9 * math.Max(math.Abs(want), 1)
			}
			if math.Abs(got-want) > tol {
				t.Fatalf("%s: optimized %v vs naive %v\na=%v\nb=%v", m.Name(), got, want, a, b)
			}
		}
	})
}

// FuzzRankedECDF compares the rank kernel with the merge walk on
// fuzzed samples. Each input byte picks a value from a small palette of
// grid points, signed zeros and infinities, so that ties within and
// across the two samples are the common case.
func FuzzRankedECDF(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 2})
	f.Add([]byte{0, 1, 2, 3, 3}, []byte{1, 0, 3})
	f.Add([]byte{4, 4, 4, 200}, []byte{4, 9, 17})
	palette := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	decode := func(raw []byte) []float64 {
		out := make([]float64, 0, len(raw))
		for _, c := range raw {
			if int(c) < len(palette) {
				out = append(out, palette[c])
			} else {
				out = append(out, float64(int(c)%13-6)/4)
			}
		}
		return out
	}
	f.Fuzz(func(t *testing.T, rawRef, rawB []byte) {
		ref, b := decode(rawRef), decode(rawB)
		if len(ref) == 0 || len(b) == 0 {
			return
		}
		sort.Float64s(ref)
		sort.Float64s(b)
		gotP, gotM := ecdfDevRanked(ref, b, ranks(ref, b))
		wantP, wantM := ecdfDevSorted(ref, b)
		if math.Float64bits(gotP) != math.Float64bits(wantP) || math.Float64bits(gotM) != math.Float64bits(wantM) {
			t.Fatalf("ranked (%v, %v) != merge walk (%v, %v)\nref=%v\nb=%v", gotP, gotM, wantP, wantM, ref, b)
		}
	})
}
