package conserts

import "testing"

// TestUAVActionTableMatchesEvaluation holds the per-process action
// table to the composition it was built from: under each of the 512
// evidence vectors, UAVActionOf must equal EvaluateUAV over a fresh
// Fig. 1 composition — with evidence maps that list every name, that
// omit the false ones (missing reads false), and that carry unknown
// extra names.
func TestUAVActionTableMatchesEvaluation(t *testing.T) {
	comp, err := BuildUAVComposition()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[UAVAction]bool{}
	for bits := 0; bits < 1<<len(uavEvidenceNames); bits++ {
		ev := UAVEvidence(bits)
		got, err := UAVActionOf(ev)
		if err != nil {
			t.Fatal(err)
		}
		seen[got] = true

		full := ev.Evidence()
		sparse := Evidence{}
		extra := Evidence{"unknown-evidence": true, "gps-quality": bits%2 == 0}
		for name, v := range full {
			if v {
				sparse[name] = true
			}
			extra[name] = v
		}
		for _, tc := range []struct {
			name string
			ev   Evidence
		}{{"full", full}, {"sparse", sparse}, {"extra", extra}} {
			want, _, err := EvaluateUAV(comp, tc.ev)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s evidence %09b: table %v, evaluation %v", tc.name, bits, got, want)
			}
		}
	}
	// The table spans every action, so no entry is a constant default.
	for a := ActionEmergencyLand; a <= ActionContinueTakeover; a++ {
		if !seen[a] {
			t.Errorf("no evidence vector selects %v", a)
		}
	}
}

func TestUAVEvidenceBits(t *testing.T) {
	bits := []UAVEvidence{
		UAVGPSQualityOK, UAVNoSpoofing, UAVCameraHealthy, UAVPerceptionConfident,
		UAVNearbyDroneDetection, UAVCommsOK, UAVNeighborsAvailable,
		UAVReliabilityHigh, UAVReliabilityMedium,
	}
	if len(bits) != len(uavEvidenceNames) {
		t.Fatalf("%d bits for %d names", len(bits), len(uavEvidenceNames))
	}
	for i, b := range bits {
		ev := b.Evidence()
		for j, name := range uavEvidenceNames {
			if ev[name] != (i == j) {
				t.Errorf("bit %d sets %s = %v", i, name, ev[name])
			}
		}
		if got := UAVEvidence(0).Set(b, true).Set(b, false); got != 0 {
			t.Errorf("Set(%d, false) left %09b", i, got)
		}
	}
}

func BenchmarkUAVActionOf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UAVActionOf(UAVEvidence(i)); err != nil {
			b.Fatal(err)
		}
	}
}
