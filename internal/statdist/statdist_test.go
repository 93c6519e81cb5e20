package statdist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func gaussian(rng *rand.Rand, n int, mu, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mu + sigma*rng.NormFloat64()
	}
	return out
}

func TestAllMeasuresListed(t *testing.T) {
	ms := All()
	if len(ms) != 6 {
		t.Fatalf("expected 6 measures, got %d", len(ms))
	}
	seen := map[string]bool{}
	for _, m := range ms {
		if m.Name() == "" || seen[m.Name()] {
			t.Fatalf("bad or duplicate name %q", m.Name())
		}
		seen[m.Name()] = true
		got, err := ByName(m.Name())
		if err != nil || got.Name() != m.Name() {
			t.Fatalf("ByName(%q) failed: %v", m.Name(), err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestIdenticalSamplesGiveZero(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, m := range All() {
		d, err := Distance(m, x, x)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if d > 1e-12 {
			t.Errorf("%s: identical samples gave %v, want 0", m.Name(), d)
		}
	}
}

func TestEmptyAndNaNRejected(t *testing.T) {
	for _, m := range All() {
		if _, err := Distance(m, nil, []float64{1}); err == nil {
			t.Errorf("%s: empty a accepted", m.Name())
		}
		if _, err := Distance(m, []float64{1}, nil); err == nil {
			t.Errorf("%s: empty b accepted", m.Name())
		}
		if _, err := Distance(m, []float64{math.NaN()}, []float64{1}); !errors.Is(err, ErrNaN) {
			t.Errorf("%s: NaN gave %v, want ErrNaN", m.Name(), err)
		}
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := gaussian(rng, 40, 0, 1)
	b := gaussian(rng, 55, 0.5, 1.5)
	for _, m := range All() {
		d1, _ := Distance(m, a, b)
		d2, _ := Distance(m, b, a)
		if math.Abs(d1-d2) > 1e-9 {
			t.Errorf("%s: asymmetric (%v vs %v)", m.Name(), d1, d2)
		}
	}
}

func TestKSKnownValue(t *testing.T) {
	// a entirely below b: D = 1.
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	d, err := Distance(KolmogorovSmirnov{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("KS = %v, want 1", d)
	}
}

func TestKSHalfShift(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	// Fa(2)=0.5, Fb(2)=0 -> D = 0.5.
	d, _ := Distance(KolmogorovSmirnov{}, a, b)
	if math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKuiperAtLeastKS(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		a := gaussian(rng, 30, 0, 1)
		b := gaussian(rng, 30, rng.Float64(), 1+rng.Float64())
		ks, _ := Distance(KolmogorovSmirnov{}, a, b)
		ku, _ := Distance(Kuiper{}, a, b)
		return ku >= ks-1e-12 && ku <= 2*ks+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWassersteinTranslation(t *testing.T) {
	// Wasserstein-1 of a pure translation equals the shift.
	a := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	shift := 2.5
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = v + shift
	}
	d, err := Distance(Wasserstein{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-shift) > 1e-9 {
		t.Fatalf("W1 = %v, want %v", d, shift)
	}
}

func TestDistancesGrowWithShift(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := gaussian(rng, 200, 0, 1)
	for _, m := range All() {
		var prev float64 = -1
		for _, shift := range []float64{0.5, 1.5, 3.5} {
			obs := make([]float64, len(ref))
			for i, v := range ref {
				obs[i] = v + shift
			}
			d, err := Distance(m, ref, obs)
			if err != nil {
				t.Fatal(err)
			}
			if d <= prev {
				t.Errorf("%s: distance did not grow with shift (%v after %v)", m.Name(), d, prev)
			}
			prev = d
		}
	}
}

func TestAndersonDarlingSensitiveToTails(t *testing.T) {
	// Same mean/median but different variance: AD must detect it.
	rng := rand.New(rand.NewSource(11))
	a := gaussian(rng, 300, 0, 1)
	b := gaussian(rng, 300, 0, 3)
	same := gaussian(rng, 300, 0, 1)
	ad := AndersonDarling{}
	dDiff, _ := Distance(ad, a, b)
	dSame, _ := Distance(ad, a, same)
	if dDiff < 4*dSame {
		t.Fatalf("AD variance sensitivity too weak: diff=%v same=%v", dDiff, dSame)
	}
}

func TestCVMBetweenZeroAndOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gaussian(rng, 25, 0, 1)
		b := gaussian(rng, 35, 2*rng.Float64(), 1)
		d, err := Distance(CramerVonMises{}, a, b)
		return err == nil && d >= 0 && d < float64(len(a)+len(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationPValueNull(t *testing.T) {
	// Same distribution: p-value should be comfortably above alpha.
	rng := rand.New(rand.NewSource(3))
	a := gaussian(rng, 60, 0, 1)
	b := gaussian(rng, 60, 0, 1)
	p, _, err := PermutationPValue(KolmogorovSmirnov{}, a, b, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Fatalf("null p-value = %v, suspiciously small", p)
	}
}

func TestPermutationPValueShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := gaussian(rng, 60, 0, 1)
	b := gaussian(rng, 60, 3, 1)
	p, obs, err := PermutationPValue(KolmogorovSmirnov{}, a, b, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.02 {
		t.Fatalf("shifted p-value = %v, want tiny", p)
	}
	if obs < 0.5 {
		t.Fatalf("observed KS = %v, want large", obs)
	}
}

func TestPermutationPValueValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := PermutationPValue(KolmogorovSmirnov{}, []float64{1}, []float64{2}, 0, rng); err == nil {
		t.Fatal("rounds=0 must fail")
	}
	if _, _, err := PermutationPValue(KolmogorovSmirnov{}, []float64{1}, []float64{2}, 10, nil); err == nil {
		t.Fatal("nil rng must fail")
	}
}

func TestFeatureDistance(t *testing.T) {
	ref := [][]float64{{0, 10}, {1, 11}, {2, 12}, {3, 13}}
	obs := [][]float64{{0.5, 30}, {1.5, 31}, {2.5, 32}}
	per, mean, err := FeatureDistance(Wasserstein{}, ref, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("perFeature = %v", per)
	}
	if per[1] < 10*per[0] {
		t.Fatalf("feature 1 (shifted by 19) must dominate: %v", per)
	}
	wantMean := (per[0] + per[1]) / 2
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", mean, wantMean)
	}
}

func TestFeatureDistanceValidation(t *testing.T) {
	if _, _, err := FeatureDistance(Wasserstein{}, nil, [][]float64{{1}}); err == nil {
		t.Fatal("empty ref must fail")
	}
	if _, _, err := FeatureDistance(Wasserstein{}, [][]float64{{1}}, [][]float64{{1, 2}}); err == nil {
		t.Fatal("mismatched widths must fail")
	}
	if _, _, err := FeatureDistance(Wasserstein{}, [][]float64{{1}, {1, 2}}, [][]float64{{1}}); err == nil {
		t.Fatal("ragged ref must fail")
	}
	if _, _, err := FeatureDistance(Wasserstein{}, [][]float64{{}}, [][]float64{{}}); err == nil {
		t.Fatal("zero features must fail")
	}
}

func BenchmarkKS200(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := gaussian(rng, 200, 0, 1)
	y := gaussian(rng, 200, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Distance(KolmogorovSmirnov{}, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllMeasures200(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := gaussian(rng, 200, 0, 1)
	y := gaussian(rng, 200, 1, 1)
	ms := All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if _, err := Distance(m, x, y); err != nil {
				b.Fatal(err)
			}
		}
	}
}
