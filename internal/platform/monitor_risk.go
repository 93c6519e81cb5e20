package platform

import (
	"fmt"

	"sesame/internal/eddi"
	"sesame/internal/sinadra"
)

// riskMonitor is the SINADRA runtime monitor (paper §III-A4): it turns
// the fused perception uncertainty into situation-aware adaptation
// advice through the shared Bayesian risk network. The assessor is
// stateless and read-only at evaluation time, so one instance serves
// every UAV's chain concurrently.
type riskMonitor struct {
	p  *Platform
	st *uavState
}

func (m *riskMonitor) Name() string { return "sinadra" }

func (m *riskMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	if !s.Derived.HasUncertainty || !s.InMissionFlight || m.st.descended {
		return nil, eddi.Advice{}, nil
	}
	risk, err := m.p.assessor.Assess(sinadra.Situation{
		Uncertainty: s.Derived.Uncertainty,
		AltitudeM:   s.AltitudeM,
		Visibility:  s.Visibility,
	})
	if !countIn(&m.p.drops.perception, err) {
		return nil, eddi.Advice{}, nil
	}
	s.Derived.RiskHigh = risk.RiskHigh
	events := []eddi.Event{{
		Kind: eddi.KindRisk, UAV: s.UAV, Time: s.Time,
		Severity: risk.RiskHigh,
		Summary:  fmt.Sprintf("risk %.2f advice %s", risk.RiskHigh, risk.Advice),
	}}
	var advice eddi.Advice
	switch risk.Advice {
	case sinadra.AdviceDescend:
		advice = eddi.Advice{Kind: eddi.AdviceDescend, Reason: "SINADRA: descend to recover perception"}
	case sinadra.AdviceRescan:
		advice = eddi.Advice{Kind: eddi.AdviceRescan, Reason: "SINADRA: re-scan the current cell"}
	}
	return events, advice, nil
}
