// Package statdist implements the two-sample statistical distance
// measures that SafeML (paper §III-A2; Aslansefat et al., IMBSA 2020)
// uses to compare the distribution of runtime input data against the
// training reference: Kolmogorov–Smirnov, Kuiper, Anderson–Darling,
// Cramér–von Mises and Wasserstein-1, plus permutation-based p-values
// and multivariate (per-feature) aggregation.
package statdist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Measure is a two-sample distance between empirical distributions,
// evaluated on sorted samples. Callers that hold unsorted samples use
// Distance.
type Measure interface {
	// Name returns the canonical measure name.
	Name() string
	// DistanceSorted returns the sample distance between a and b, each
	// sorted ascending. Larger means more dissimilar. It returns an
	// error on empty input or a NaN (ErrNaN); passing unsorted input is
	// a caller error and yields an unspecified value. It performs no
	// allocation.
	DistanceSorted(a, b []float64) (float64, error)
}

// Distance returns m's distance between a and b in any order: it sorts
// copies of both and calls m.DistanceSorted.
func Distance(m Measure, a, b []float64) (float64, error) {
	return m.DistanceSorted(sortedCopy(a), sortedCopy(b))
}

// RankedMeasure is implemented by the ECDF-deviation measures
// (Kolmogorov–Smirnov and Kuiper). A caller that compares a changing
// sorted sample against one fixed sorted reference can keep, for each
// sample value, its rank in the reference (RankBelow) as the value
// enters the sample, and then evaluate the distance in one pass over
// the sample instead of a merge walk over both.
type RankedMeasure interface {
	Measure
	// DistanceRanked returns DistanceSorted(ref, b) bit for bit, given
	// lo[k] = RankBelow(ref, b[k]) for every k. ref and b must be
	// sorted ascending, non-empty and NaN-free: the caller checks that
	// once, so no call scans for NaN. It performs no allocation.
	DistanceRanked(ref, b []float64, lo []int32) float64
}

// All returns one instance of every implemented measure, in a stable
// order.
func All() []Measure {
	return []Measure{
		KolmogorovSmirnov{},
		Kuiper{},
		AndersonDarling{},
		CramerVonMises{},
		Wasserstein{},
		Energy{},
	}
}

// ByName returns the measure with the given Name.
func ByName(name string) (Measure, error) {
	for _, m := range All() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("statdist: unknown measure %q", name)
}

var errEmpty = errors.New("statdist: empty sample")

// ErrNaN reports a NaN in a sample: NaN has no order, so no measure is
// defined over it.
var ErrNaN = errors.New("statdist: NaN in sample")

func checkSamples(a, b []float64) error {
	if len(a) == 0 || len(b) == 0 {
		return errEmpty
	}
	for _, v := range a {
		if math.IsNaN(v) {
			return ErrNaN
		}
	}
	for _, v := range b {
		if math.IsNaN(v) {
			return ErrNaN
		}
	}
	return nil
}

func sortedCopy(x []float64) []float64 {
	out := append([]float64(nil), x...)
	sort.Float64s(out)
	return out
}

// ecdfDevSorted merge-walks two sorted samples and returns the maximum
// positive and negative deviations of Fa - Fb over the pooled support.
// It computes the exact values the pooled-sort formulation produced,
// in O(n+m) without allocating.
func ecdfDevSorted(sa, sb []float64) (dPlus, dMinus float64) {
	na, nb := len(sa), len(sb)
	i, j := 0, 0
	for i < na || j < nb {
		var v float64
		switch {
		case i >= na:
			v = sb[j]
		case j >= nb:
			v = sa[i]
		case sa[i] <= sb[j]:
			v = sa[i]
		default:
			v = sb[j]
		}
		for i < na && sa[i] == v {
			i++
		}
		for j < nb && sb[j] == v {
			j++
		}
		d := float64(i)/float64(na) - float64(j)/float64(nb)
		if d > dPlus {
			dPlus = d
		}
		if -d > dMinus {
			dMinus = -d
		}
	}
	return dPlus, dMinus
}

// RankBelow returns the number of values in the ascending sorted s
// strictly below v, which is also the index at which v is inserted
// ahead of any equal values. v must not be NaN.
func RankBelow(s []float64, v float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s[h] < v {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// ecdfDevRanked returns ecdfDevSorted(ref, b) from the ranks
// lo[k] = RankBelow(ref, b[k]), in one pass over b with no merge.
//
// Fa - Fb peaks just below a value b[k] that starts a run of equal
// values (lo[k] reference and k sample values lie below it), and
// Fb - Fa peaks at a value b[k] that ends one (hi reference and k+1
// sample values are ≤ it, where hi walks ref's ties from lo[k]). The
// merge walk evaluates each of these points as a pooled-support value
// from the same quotients (fb - fa is exactly its -d), and every other
// candidate here or there is no larger than one of them, so both
// maxima are bit-identical.
//
// Each quotient is computed once: fb carries (k+1)/nb into the next
// step as k/nb, and i/na is recomputed only when ties moved i.
func ecdfDevRanked(ref, b []float64, lo []int32) (dPlus, dMinus float64) {
	na, nb := len(ref), len(b)
	fb := 0.0 // float64(k)/float64(nb)
	for k, v := range b {
		i := int(lo[k])
		fa := float64(i) / float64(na)
		dPlus = max(dPlus, fa-fb)
		if i < na && ref[i] == v {
			for i++; i < na && ref[i] == v; i++ {
			}
			fa = float64(i) / float64(na)
		}
		fb = float64(k+1) / float64(nb)
		dMinus = max(dMinus, fb-fa)
	}
	return dPlus, dMinus
}

// KolmogorovSmirnov is the two-sample KS statistic sup|Fa - Fb|.
type KolmogorovSmirnov struct{}

// Name implements Measure.
func (KolmogorovSmirnov) Name() string { return "kolmogorov-smirnov" }

// DistanceSorted implements Measure.
func (KolmogorovSmirnov) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	dp, dm := ecdfDevSorted(a, b)
	return math.Max(dp, dm), nil
}

// DistanceRanked implements RankedMeasure.
func (KolmogorovSmirnov) DistanceRanked(ref, b []float64, lo []int32) float64 {
	dp, dm := ecdfDevRanked(ref, b, lo)
	return math.Max(dp, dm)
}

// Kuiper is the two-sample Kuiper statistic D+ + D-, which unlike KS is
// equally sensitive across the whole support (useful for cyclic or
// tail-shifted data).
type Kuiper struct{}

// Name implements Measure.
func (Kuiper) Name() string { return "kuiper" }

// DistanceSorted implements Measure.
func (Kuiper) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	dp, dm := ecdfDevSorted(a, b)
	return dp + dm, nil
}

// DistanceRanked implements RankedMeasure.
func (Kuiper) DistanceRanked(ref, b []float64, lo []int32) float64 {
	dp, dm := ecdfDevRanked(ref, b, lo)
	return dp + dm
}

// AndersonDarling is the two-sample Anderson–Darling statistic
// (Pettitt's A², tie-free rank form), normalized by sample size so that
// values are comparable across window lengths.
type AndersonDarling struct{}

// Name implements Measure.
func (AndersonDarling) Name() string { return "anderson-darling" }

// DistanceSorted implements Measure.
func (AndersonDarling) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	return adSorted(a, b), nil
}

// adSorted merge-walks two sorted samples and evaluates the tie-aware
// ECDF-integral form of Pettitt's A²: sum over distinct pooled values z
// (excluding the last, where H = 1) of
//
//	(Fa(z) - Fb(z))^2 / (H(z)(1 - H(z))) * h/N
//
// weighted by nm/N, where H is the pooled ECDF and h the multiplicity
// of z. The walk visits the same distinct values in the same ascending
// order as the pooled-sort formulation, so the result is bit-identical.
func adSorted(sa, sb []float64) float64 {
	na, nb := len(sa), len(sb)
	n, m := float64(na), float64(nb)
	nn := n + m
	i, j := 0, 0
	var a2 float64
	for i < na || j < nb {
		var v float64
		switch {
		case i >= na:
			v = sb[j]
		case j >= nb:
			v = sa[i]
		case sa[i] <= sb[j]:
			v = sa[i]
		default:
			v = sb[j]
		}
		i0, j0 := i, j
		for i < na && sa[i] == v {
			i++
		}
		for j < nb && sb[j] == v {
			j++
		}
		h := float64((i - i0) + (j - j0))
		hz := float64(i+j) / nn // pooled ECDF at this value
		if hz < 1 {
			d := float64(i)/n - float64(j)/m
			a2 += d * d / (hz * (1 - hz)) * h / nn
		}
	}
	return n * m / nn * a2
}

// CramerVonMises is the two-sample Cramér–von Mises criterion
// T = nm/N² Σ (Fa(z) - Fb(z))² over the pooled sample.
type CramerVonMises struct{}

// Name implements Measure.
func (CramerVonMises) Name() string { return "cramer-von-mises" }

// DistanceSorted implements Measure.
func (CramerVonMises) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	return cvmSorted(a, b), nil
}

// cvmSorted merge-walks two sorted samples and sums (Fa - Fb)² over
// every pooled element (each distinct value contributes once per
// multiplicity, added one term at a time so the float accumulation
// matches the pooled-sort formulation bit for bit).
func cvmSorted(sa, sb []float64) float64 {
	na, nb := len(sa), len(sb)
	n, m := float64(na), float64(nb)
	i, j := 0, 0
	var sum float64
	for i < na || j < nb {
		var v float64
		switch {
		case i >= na:
			v = sb[j]
		case j >= nb:
			v = sa[i]
		case sa[i] <= sb[j]:
			v = sa[i]
		default:
			v = sb[j]
		}
		i0, j0 := i, j
		for i < na && sa[i] == v {
			i++
		}
		for j < nb && sb[j] == v {
			j++
		}
		d := float64(i)/n - float64(j)/m
		dd := d * d
		for k := 0; k < (i-i0)+(j-j0); k++ {
			sum += dd
		}
	}
	return n * m / ((n + m) * (n + m)) * sum
}

// Wasserstein is the 1-Wasserstein (earth mover's) distance between the
// empirical distributions, computed as the L1 distance between inverse
// CDFs. Unlike the rank statistics it carries the scale of the data.
type Wasserstein struct{}

// Name implements Measure.
func (Wasserstein) Name() string { return "wasserstein" }

// DistanceSorted implements Measure.
func (Wasserstein) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	return wassersteinSorted(a, b), nil
}

// wassersteinSorted integrates |Fa - Fb| over the pooled support via a
// merge walk: for each consecutive pair of distinct pooled values
// (prev, v) it adds |Fa(prev) - Fb(prev)| * (v - prev), the same terms
// in the same ascending order as the pooled-sort formulation.
func wassersteinSorted(sa, sb []float64) float64 {
	na, nb := len(sa), len(sb)
	n, m := float64(na), float64(nb)
	i, j := 0, 0
	var sum float64
	var prev, dPrev float64
	first := true
	for i < na || j < nb {
		var v float64
		switch {
		case i >= na:
			v = sb[j]
		case j >= nb:
			v = sa[i]
		case sa[i] <= sb[j]:
			v = sa[i]
		default:
			v = sb[j]
		}
		if !first {
			if width := v - prev; width > 0 {
				sum += dPrev * width
			}
		}
		for i < na && sa[i] == v {
			i++
		}
		for j < nb && sb[j] == v {
			j++
		}
		prev = v
		dPrev = math.Abs(float64(i)/n - float64(j)/m)
		first = false
	}
	return sum
}

// Energy is the (squared) energy distance of Székely & Rizzo:
// 2 E|X-Y| - E|X-X'| - E|Y-Y'|. Like Wasserstein it carries the data's
// scale; unlike the rank statistics it is zero iff the distributions
// coincide and extends naturally to multivariate data.
type Energy struct{}

// Name implements Measure.
func (Energy) Name() string { return "energy" }

// DistanceSorted implements Measure.
func (Energy) DistanceSorted(a, b []float64) (float64, error) {
	if err := checkSamples(a, b); err != nil {
		return 0, err
	}
	return energySorted(a, b), nil
}

func energySorted(sa, sb []float64) float64 {
	cross := sortedMeanAbsDiff(sa, sb)
	within1 := sortedMeanAbsDiffSelf(sa)
	within2 := sortedMeanAbsDiffSelf(sb)
	d := 2*cross - within1 - within2
	if d < 0 { // numeric round-off on (near-)identical samples
		d = 0
	}
	return d
}

// energyPrefixMax bounds the stack-allocated prefix-sum scratch of
// sortedMeanAbsDiff; larger windows fall back to one heap allocation.
const energyPrefixMax = 512

// sortedMeanAbsDiff returns E|X-Y| over all cross pairs of two sorted
// samples, in O((n+m) log) time via sorted prefix sums.
func sortedMeanAbsDiff(sa, sb []float64) float64 {
	// Sum over x in a of sum over y in b of |x-y|:
	// for each x, |{y<=x}|*x - sum(y<=x) + sum(y>x) - |{y>x}|*x.
	var stack [energyPrefixMax + 1]float64
	var prefix []float64
	if len(sb) <= energyPrefixMax {
		prefix = stack[:len(sb)+1]
	} else {
		prefix = make([]float64, len(sb)+1)
	}
	for i, v := range sb {
		prefix[i+1] = prefix[i] + v
	}
	total := prefix[len(sb)]
	var sum float64
	for _, x := range sa {
		k := sort.SearchFloat64s(sb, x)
		// sb[:k] < x (SearchFloat64s finds first >= x); treat ties as
		// zero-contribution either way.
		sum += float64(k)*x - prefix[k] + (total - prefix[k]) - float64(len(sb)-k)*x
	}
	return sum / float64(len(sa)*len(sb))
}

// sortedMeanAbsDiffSelf returns E|X-X'| for pairs within one sorted
// sample.
func sortedMeanAbsDiffSelf(s []float64) float64 {
	if len(s) < 2 {
		return 0
	}
	// sum over i<j of (s[j]-s[i]) = sum_j s[j]*j - prefix sums.
	var sum, prefix float64
	for j, v := range s {
		sum += v*float64(j) - prefix
		prefix += v
	}
	n := float64(len(s))
	return 2 * sum / (n * n)
}

// PermutationPValue estimates the p-value of the observed distance
// between a and b under the null hypothesis that both come from the
// same distribution, by reshuffling the pooled sample rounds times.
// Returns the p-value and the observed distance.
func PermutationPValue(m Measure, a, b []float64, rounds int, rng *rand.Rand) (p, observed float64, err error) {
	if rounds <= 0 {
		return 0, 0, errors.New("statdist: rounds must be positive")
	}
	if rng == nil {
		return 0, 0, errors.New("statdist: nil rng")
	}
	observed, err = Distance(m, a, b)
	if err != nil {
		return 0, 0, err
	}
	// All scratch is hoisted out of the resampling loop: the pooled
	// array is shuffled in place and the two half buffers are re-sorted
	// in place each round, so the loop itself performs no allocation.
	pooled := append(append([]float64(nil), a...), b...)
	ha := make([]float64, len(a))
	hb := make([]float64, len(b))
	exceed := 0
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(pooled), func(i, j int) { pooled[i], pooled[j] = pooled[j], pooled[i] })
		copy(ha, pooled[:len(a)])
		copy(hb, pooled[len(a):])
		sort.Float64s(ha)
		sort.Float64s(hb)
		d, err := m.DistanceSorted(ha, hb)
		if err != nil {
			return 0, 0, err
		}
		if d >= observed {
			exceed++
		}
	}
	// Add-one smoothing keeps p strictly positive.
	return (float64(exceed) + 1) / (float64(rounds) + 1), observed, nil
}

// FeatureDistance applies the measure per feature column and returns
// the per-feature distances and their mean. ref and obs are row-major
// sample-by-feature matrices with equal column counts.
func FeatureDistance(m Measure, ref, obs [][]float64) (perFeature []float64, mean float64, err error) {
	if len(ref) == 0 || len(obs) == 0 {
		return nil, 0, errEmpty
	}
	nf := len(ref[0])
	if nf == 0 {
		return nil, 0, errors.New("statdist: zero features")
	}
	for _, row := range ref {
		if len(row) != nf {
			return nil, 0, errors.New("statdist: ragged reference matrix")
		}
	}
	for _, row := range obs {
		if len(row) != nf {
			return nil, 0, fmt.Errorf("statdist: observation has %d features, reference has %d", len(row), nf)
		}
	}
	perFeature = make([]float64, nf)
	col := make([]float64, 0, len(ref))
	colObs := make([]float64, 0, len(obs))
	// The column buffers are scratch, so they are sorted in place.
	for f := 0; f < nf; f++ {
		col = col[:0]
		colObs = colObs[:0]
		for _, row := range ref {
			col = append(col, row[f])
		}
		for _, row := range obs {
			colObs = append(colObs, row[f])
		}
		sort.Float64s(col)
		sort.Float64s(colObs)
		d, err := m.DistanceSorted(col, colObs)
		if err != nil {
			return nil, 0, err
		}
		perFeature[f] = d
		mean += d
	}
	mean /= float64(nf)
	return perFeature, mean, nil
}
