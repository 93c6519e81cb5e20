package safeml

// Differential tests pinning the rank-indexed Evaluate path to the
// sorted-column path (DistanceSorted) and to statdist.FeatureDistance
// over the raw window rows, bit for bit, across tied values, window
// wrap-around, Reset, State/Restore mid-window and NaN windows; and the
// NaN contract: a NaN window fails with statdist.ErrNaN, a NaN
// reference is refused.

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sesame/internal/statdist"
)

// quantizedRows draws rows on a coarse grid so that values tie within
// the window, within the reference and across the two; a few rows
// carry signed zeros and infinities.
func quantizedRows(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			switch rng.Intn(16) {
			case 0:
				row[j] = math.Copysign(0, -1)
			case 1:
				row[j] = math.Inf(1 - 2*rng.Intn(2))
			default:
				row[j] = float64(rng.Intn(9)-4) / 2
			}
		}
		out[i] = row
	}
	return out
}

// liveRows returns the window rows the monitor currently holds, in ring
// order (FeatureDistance is order-free per column).
func liveRows(m *Monitor) [][]float64 {
	if m.filled {
		return m.window
	}
	return m.window[:m.count]
}

// checkRankIndex asserts the stored ranks are the reference ranks of
// the sorted window values they sit beside.
func checkRankIndex(t *testing.T, m *Monitor) {
	t.Helper()
	for f, col := range m.winSorted {
		if !sort.Float64sAreSorted(col) {
			t.Fatalf("feature %d: window column not sorted: %v", f, col)
		}
		for k, v := range col {
			if want := statdist.RankBelow(m.refSorted[f], v); int(m.below[f][k]) != want {
				t.Fatalf("feature %d: rank of %v at %d = %d, want %d", f, v, k, m.below[f][k], want)
			}
		}
	}
}

// checkEvaluate compares the monitor's Evaluate with the sorted-column
// path and with FeatureDistance of the reference over the raw rows.
func checkEvaluate(t *testing.T, m *Monitor, ref [][]float64) {
	t.Helper()
	if !m.filled {
		if _, err := m.Evaluate(); err == nil {
			t.Fatal("Evaluate on an unfilled window must fail")
		}
		return
	}
	rep, err := m.Evaluate()
	wantPer, wantMean, wantErr := statdist.FeatureDistance(m.cfg.Measure, ref, liveRows(m))
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("Evaluate error %v, FeatureDistance error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(rep.Distance) != math.Float64bits(wantMean) {
		t.Fatalf("mean %v != FeatureDistance %v", rep.Distance, wantMean)
	}
	for f, d := range rep.PerFeature {
		if math.Float64bits(d) != math.Float64bits(wantPer[f]) {
			t.Fatalf("feature %d: %v != FeatureDistance %v", f, d, wantPer[f])
		}
		sorted, err := m.cfg.Measure.DistanceSorted(m.refSorted[f], m.winSorted[f])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(sorted) {
			t.Fatalf("feature %d: %v != DistanceSorted %v", f, d, sorted)
		}
	}
}

func TestRankedEvaluateMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 200; round++ {
		for _, measure := range []statdist.Measure{statdist.KolmogorovSmirnov{}, statdist.Kuiper{}} {
			cfg := DefaultConfig()
			cfg.Measure = measure
			cfg.WindowSize = 2 + rng.Intn(63)
			dim := 1 + rng.Intn(6)
			ref := quantizedRows(rng, 1+rng.Intn(254), dim)
			m, err := NewMonitor(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.ranked == nil {
				t.Fatalf("%s: rank path not taken", measure.Name())
			}
			rows := quantizedRows(rng, 3*cfg.WindowSize+rng.Intn(40), dim)
			for i, row := range rows {
				if err := m.Push(row); err != nil {
					t.Fatal(err)
				}
				checkRankIndex(t, m)
				checkEvaluate(t, m, ref)
				switch {
				case i == len(rows)/2 && rng.Intn(3) == 0:
					m.Reset()
					checkRankIndex(t, m)
				case i == len(rows)/3:
					// Restore mid-stream into a fresh monitor; the
					// two must evaluate identically from here on.
					m2, err := NewMonitor(ref, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := m2.Restore(m.State()); err != nil {
						t.Fatal(err)
					}
					checkRankIndex(t, m2)
					checkEvaluate(t, m2, ref)
					m = m2
				}
			}
		}
	}
}

func TestEvaluateNaNWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, measure := range statdist.All() {
		cfg := DefaultConfig()
		cfg.Measure = measure
		cfg.WindowSize = 8
		ref := quantizedRows(rng, 50, 3)
		m, err := NewMonitor(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := quantizedRows(rng, 40, 3)
		rows[10][1] = math.NaN()
		for i, row := range rows {
			if err := m.Push(row); err != nil {
				t.Fatal(err)
			}
			if m.ranked != nil {
				checkRankIndex(t, m)
			}
			inWindow := i >= 10 && i < 10+cfg.WindowSize
			if _, err := m.Evaluate(); m.filled && inWindow != errors.Is(err, statdist.ErrNaN) {
				t.Fatalf("%s push %d: Evaluate error %v, NaN in window %v", measure.Name(), i, err, inWindow)
			}
			// With the NaN live, Evaluate and FeatureDistance fail with
			// the same text; once it is evicted they agree bit for bit.
			checkEvaluate(t, m, ref)
		}
	}
}

func TestNewMonitorRejectsNaNReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ref := quantizedRows(rng, 30, 2)
	ref[7][1] = math.NaN()
	for _, measure := range statdist.All() {
		cfg := DefaultConfig()
		cfg.Measure = measure
		cfg.WindowSize = 5
		if m, err := NewMonitor(ref, cfg); m != nil || !errors.Is(err, statdist.ErrNaN) {
			t.Fatalf("%s: NewMonitor over a NaN reference gave (%v, %v), want ErrNaN", measure.Name(), m, err)
		}
	}
}
