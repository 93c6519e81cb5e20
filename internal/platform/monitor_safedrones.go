package platform

import (
	"encoding/json"
	"strconv"

	"sesame/internal/eddi"
	"sesame/internal/safedrones"
)

// reliabilityMonitor is the SafeDrones runtime monitor (paper §III-A1):
// it folds each telemetry snapshot into the per-UAV Markov/fault-tree
// model and publishes the PoF, the reliability level and the raw
// adaptation proposal on the chain blackboard. Under the EDDI policy it
// additionally raises an override when the emergency-PoF threshold is
// crossed — the trend-based call the boolean ConSert evidence cannot
// reproduce.
type reliabilityMonitor struct {
	p  *Platform
	st *uavState
}

func (m *reliabilityMonitor) Name() string { return "safedrones" }

func adviceKind(a safedrones.Advice) eddi.AdviceKind {
	switch a {
	case safedrones.AdviceHold:
		return eddi.AdviceHold
	case safedrones.AdviceReturnToBase:
		return eddi.AdviceReturnToBase
	case safedrones.AdviceEmergencyLand:
		return eddi.AdviceEmergencyLand
	default:
		return eddi.AdviceNone
	}
}

func (m *reliabilityMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	assessment, err := m.st.monitor.Observe(safedrones.Telemetry{
		Time:         s.Time,
		ChargePct:    s.ChargePct,
		TempC:        s.BatteryTempC,
		Overheating:  s.Overheating,
		FailedRotors: s.FailedRotors,
		CommsOK:      s.CommsOK,
		Airborne:     s.Airborne,
	})
	if err != nil {
		return nil, eddi.Advice{}, err
	}
	m.st.lastAssessment = assessment
	s.Derived.PoF = assessment.PoF
	s.Derived.ReliabilityLevel = assessment.Level.String()
	s.Derived.SafetyAdvice = adviceKind(assessment.Advice)

	events := []eddi.Event{{
		Kind: eddi.KindSafety, UAV: s.UAV, Time: s.Time,
		Severity: assessment.PoF,
		Summary:  safetySummary(assessment.PoF, assessment.Level),
	}}
	var advice eddi.Advice
	// The emergency override belongs to the EDDI policy; the reactive
	// baseline handles the same proposal through its own monitor.
	if m.p.cfg.SESAME && assessment.Advice == safedrones.AdviceEmergencyLand {
		advice = eddi.Advice{
			Kind:     eddi.AdviceEmergencyLand,
			Reason:   "SafeDrones emergency-PoF threshold",
			Override: true,
		}
	}
	return events, advice, nil
}

// safetySummary renders the event summary "PoF %.3f level %s" byte for
// byte, in one allocation.
func safetySummary(pof float64, l safedrones.Level) string {
	var buf [48]byte
	b := strconv.AppendFloat(append(buf[:0], "PoF "...), pof, 'f', 3, 64)
	return string(append(append(b, " level "...), l.String()...))
}

// SnapshotState implements eddi.Snapshotter: the Markov/fault-tree
// model's incremental state (distributions, hazard, clock).
func (m *reliabilityMonitor) SnapshotState() ([]byte, error) {
	return json.Marshal(m.st.monitor.State())
}

// RestoreState implements eddi.Snapshotter.
func (m *reliabilityMonitor) RestoreState(data []byte) error {
	var s safedrones.State
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	return m.st.monitor.Restore(s)
}
