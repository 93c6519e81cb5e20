// Package safeml implements the SafeML runtime ML-safety monitor
// (paper §III-A2; Aslansefat et al., IMBSA 2020). It maintains a
// sliding window of the feature vectors the perception model is seeing
// at runtime and compares their distribution, per feature, against the
// training reference set using the statistical distance measures of
// package statdist. The greater the dissimilarity, the lower the
// confidence in the ML outcome; confidence bands map to responses that
// ConSerts orchestrates (accept, caution, reject/minimal-risk
// manoeuvre).
//
// The monitor keeps its window sorted per feature and, for the
// Kolmogorov–Smirnov and Kuiper measures, indexed by rank in the fixed
// reference: each value's reference rank is found once, when Push
// admits it, so an evaluation is one pass over the window rather than a
// merge walk over window and reference.
package safeml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sesame/internal/statdist"
)

// Action is the response band suggested by the monitor.
type Action int

// Actions in increasing severity.
const (
	ActionAccept Action = iota
	ActionCaution
	ActionReject
)

func (a Action) String() string {
	switch a {
	case ActionAccept:
		return "accept"
	case ActionCaution:
		return "caution"
	case ActionReject:
		return "reject"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Config parameterizes a Monitor.
type Config struct {
	// Measure is the statistical distance; defaults to
	// Kolmogorov-Smirnov, SafeML's canonical choice.
	Measure statdist.Measure
	// WindowSize is how many runtime samples are compared at a time.
	WindowSize int
	// UncertaintyFloor and UncertaintyGain map the mean per-feature
	// distance d to uncertainty = floor + gain*d (clamped to [0,1]).
	// The defaults are calibrated to the paper's §V-B operating
	// points: ~0.75 uncertainty in-distribution, >0.9 at high-altitude
	// drift.
	UncertaintyFloor float64
	UncertaintyGain  float64
	// CautionAt / RejectAt are the uncertainty thresholds for the
	// caution and reject bands (paper threshold: 0.9 for reject).
	CautionAt float64
	RejectAt  float64
}

// DefaultConfig returns the calibration used in the experiments.
func DefaultConfig() Config {
	return Config{
		Measure:          statdist.KolmogorovSmirnov{},
		WindowSize:       40,
		UncertaintyFloor: 0.68,
		UncertaintyGain:  0.55,
		CautionAt:        0.82,
		RejectAt:         0.9,
	}
}

// Report is one evaluation of the runtime window.
type Report struct {
	// Distance is the mean per-feature statistical distance between
	// the window and the reference.
	Distance float64
	// PerFeature are the individual feature distances. The slice is
	// owned by the Monitor and overwritten by the next Evaluate; copy
	// it if you need it to survive.
	PerFeature []float64
	// Uncertainty in [0,1]; Confidence = 1 - Uncertainty.
	Uncertainty float64
	Confidence  float64
	Action      Action
	// Samples is how many runtime samples the window held.
	Samples int
}

// Monitor is the runtime SafeML instance for one perception model.
//
// The steady-state Evaluate path is incremental and allocation-free:
// the reference is read once at NewMonitor into sorted columns, the
// runtime window maintains one sorted column per feature by
// binary-search insert/remove on Push, and the measure compares the two
// sorted columns directly. Rank-capable measures
// (statdist.RankedMeasure: KS and Kuiper) go further: Push also stores
// each window value's rank in the reference column, kept in step with
// the sorted window column, and Evaluate computes the distance from
// those ranks in O(window) per feature. The reported distances are
// bit-identical to statdist.FeatureDistance over the raw rows.
type Monitor struct {
	cfg Config
	// refSorted[f] is the reference's feature-f column, sorted once.
	refSorted [][]float64

	// window is the ring buffer of raw feature rows (rows preallocated,
	// reused in place).
	window [][]float64
	next   int
	filled bool
	count  int
	// winSorted[f] is the incrementally maintained sorted column of the
	// current window's feature f. NaN values are excluded (they have no
	// order) and counted by nanCount; Evaluate fails while any is live.
	winSorted [][]float64
	nanCount  int
	// below[f][k] is the number of refSorted[f] values strictly below
	// winSorted[f][k]; only its first len(winSorted[f]) entries are
	// live. Maintained only when ranked is set.
	below [][]int32

	// ranked is cfg.Measure's rank fast path, nil if the measure does
	// not implement statdist.RankedMeasure.
	ranked statdist.RankedMeasure
	// perFeature is the reusable Report.PerFeature buffer.
	perFeature []float64
}

// NewMonitor builds a monitor around the training reference feature
// matrix (rows = samples, columns = features), which must hold no NaN.
// The matrix is read once into sorted columns and not retained.
func NewMonitor(reference [][]float64, cfg Config) (*Monitor, error) {
	if len(reference) == 0 {
		return nil, errors.New("safeml: empty reference set")
	}
	width := len(reference[0])
	if width == 0 {
		return nil, errors.New("safeml: reference has zero features")
	}
	for i, row := range reference {
		if len(row) != width {
			return nil, fmt.Errorf("safeml: reference row %d has %d features, want %d", i, len(row), width)
		}
		for _, v := range row {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("safeml: reference row %d: %w", i, statdist.ErrNaN)
			}
		}
	}
	if cfg.Measure == nil {
		cfg.Measure = statdist.KolmogorovSmirnov{}
	}
	if cfg.WindowSize <= 1 {
		return nil, fmt.Errorf("safeml: window size %d too small", cfg.WindowSize)
	}
	if cfg.RejectAt <= cfg.CautionAt {
		return nil, errors.New("safeml: require CautionAt < RejectAt")
	}
	m := &Monitor{cfg: cfg, window: make([][]float64, cfg.WindowSize)}
	for i := range m.window {
		m.window[i] = make([]float64, width)
	}
	m.refSorted = make([][]float64, width)
	m.winSorted = make([][]float64, width)
	for f := 0; f < width; f++ {
		col := make([]float64, len(reference))
		for i, row := range reference {
			col[i] = row[f]
		}
		sort.Float64s(col)
		m.refSorted[f] = col
		m.winSorted[f] = make([]float64, 0, cfg.WindowSize)
	}
	if ranked, ok := cfg.Measure.(statdist.RankedMeasure); ok {
		m.ranked = ranked
		block := make([]int32, width*cfg.WindowSize)
		m.below = make([][]int32, width)
		for f := range m.below {
			m.below[f] = block[f*cfg.WindowSize : (f+1)*cfg.WindowSize : (f+1)*cfg.WindowSize]
		}
	}
	m.perFeature = make([]float64, width)
	return m, nil
}

// FeatureDim returns the expected feature vector width.
func (m *Monitor) FeatureDim() int { return len(m.refSorted) }

// Ready reports whether the window has filled at least once.
func (m *Monitor) Ready() bool { return m.filled }

// Push adds one runtime feature vector to the sliding window,
// updating the per-feature sorted columns incrementally. Amortized it
// performs no allocation.
func (m *Monitor) Push(features []float64) error {
	if len(features) != m.FeatureDim() {
		return fmt.Errorf("safeml: got %d features, want %d", len(features), m.FeatureDim())
	}
	row := m.window[m.next]
	if m.count == len(m.window) {
		// The ring is full: the slot being overwritten holds the oldest
		// sample, whose values leave the sorted columns.
		for f, old := range row {
			m.removeSorted(f, old)
		}
	} else {
		m.count++
	}
	copy(row, features)
	for f, v := range features {
		m.insertSorted(f, v)
	}
	m.next++
	if m.next == len(m.window) {
		m.next = 0
		m.filled = true
	}
	return nil
}

// insertSorted adds v to feature f's sorted window column and, on the
// rank path, its reference rank at the same position.
func (m *Monitor) insertSorted(f int, v float64) {
	if math.IsNaN(v) {
		// NaN has no order; count it and keep the column well-sorted.
		m.nanCount++
		return
	}
	col := m.winSorted[f]
	n := len(col)
	i := statdist.RankBelow(col, v)
	col = col[:n+1]
	copy(col[i+1:], col[i:n])
	col[i] = v
	m.winSorted[f] = col
	if m.ranked != nil {
		// v's rank lies between its new neighbours' ranks, so only
		// that stretch of the reference is searched.
		below, ref := m.below[f], m.refSorted[f]
		lo, hi := 0, len(ref)
		if i > 0 {
			lo = int(below[i-1])
		}
		if i < n {
			hi = int(below[i])
		}
		copy(below[i+1:n+1], below[i:n])
		below[i] = int32(lo + statdist.RankBelow(ref[lo:hi], v))
	}
}

// removeSorted drops one instance of v from feature f's sorted column
// and the rank stored beside it.
func (m *Monitor) removeSorted(f int, v float64) {
	if math.IsNaN(v) {
		m.nanCount--
		return
	}
	col := m.winSorted[f]
	n := len(col)
	i := statdist.RankBelow(col, v)
	copy(col[i:], col[i+1:])
	m.winSorted[f] = col[:n-1]
	if m.ranked != nil {
		below := m.below[f]
		copy(below[i:n-1], below[i+1:n])
	}
}

// Reset clears the runtime window (e.g. after a commanded altitude
// change invalidates the old samples). The rank columns empty with
// the sorted columns they follow.
func (m *Monitor) Reset() {
	m.next = 0
	m.filled = false
	m.count = 0
	m.nanCount = 0
	for f := range m.winSorted {
		m.winSorted[f] = m.winSorted[f][:0]
	}
}

// Evaluate compares the current window against the reference. It
// requires a full window so that the statistics are comparable across
// evaluations.
func (m *Monitor) Evaluate() (Report, error) {
	if !m.filled {
		return Report{}, fmt.Errorf("safeml: window not yet full (%d/%d)", m.next, len(m.window))
	}
	per, mean, err := m.featureDistances()
	if err != nil {
		return Report{}, err
	}
	u := m.cfg.UncertaintyFloor + m.cfg.UncertaintyGain*mean
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	r := Report{
		Distance:    mean,
		PerFeature:  per,
		Uncertainty: u,
		Confidence:  1 - u,
		Samples:     len(m.window),
	}
	switch {
	case u >= m.cfg.RejectAt:
		r.Action = ActionReject
	case u >= m.cfg.CautionAt:
		r.Action = ActionCaution
	default:
		r.Action = ActionAccept
	}
	return r, nil
}

// featureDistances computes the per-feature distances of the full
// window against the reference. It evaluates the incrementally
// maintained sorted window columns, from their reference ranks for
// rank-capable measures and against the sorted reference columns
// otherwise, without sorting or allocating. A window holding a NaN
// fails with statdist.ErrNaN.
func (m *Monitor) featureDistances() ([]float64, float64, error) {
	if m.nanCount > 0 {
		return nil, 0, statdist.ErrNaN
	}
	var mean float64
	for f := range m.perFeature {
		win := m.winSorted[f]
		var d float64
		if m.ranked != nil {
			d = m.ranked.DistanceRanked(m.refSorted[f], win, m.below[f][:len(win)])
		} else {
			var err error
			if d, err = m.cfg.Measure.DistanceSorted(m.refSorted[f], win); err != nil {
				return nil, 0, err
			}
		}
		m.perFeature[f] = d
		mean += d
	}
	mean /= float64(len(m.perFeature))
	return m.perFeature, mean, nil
}

// EvaluateWithPValue augments Evaluate with a per-feature permutation
// test of the null hypothesis "window and reference come from the same
// distribution": it returns the ordinary report plus the minimum
// per-feature p-value (Bonferroni-comparable across features). Small
// p-values confirm the drift is statistically significant rather than
// a small-window artefact; the original SafeML workflow uses this to
// set the sample size.
func (m *Monitor) EvaluateWithPValue(rounds int, rng *rand.Rand) (Report, float64, error) {
	rep, err := m.Evaluate()
	if err != nil {
		return Report{}, 0, err
	}
	if rounds <= 0 {
		return Report{}, 0, errors.New("safeml: rounds must be positive")
	}
	if rng == nil {
		return Report{}, 0, errors.New("safeml: nil rng")
	}
	// Evaluate succeeded, so the window is full and NaN-free: its
	// sorted columns hold every live value.
	minP := 1.0
	for f, ref := range m.refSorted {
		p, _, err := statdist.PermutationPValue(m.cfg.Measure, ref, m.winSorted[f], rounds, rng)
		if err != nil {
			return Report{}, 0, err
		}
		if p < minP {
			minP = p
		}
	}
	return rep, minP, nil
}
