package conserts

import (
	"errors"
	"fmt"
	"sync"
)

// This file encodes the hierarchical ConSert network of the paper's
// Fig. 1: per-UAV localization ConSerts (GPS-based, vision-based,
// communication-based), the SafeDrones reliability estimation, the
// navigation ConSert that grades achievable accuracy, the top-level
// UAV ConSert that selects the flight action, and the mission-level
// decider that aggregates over the fleet.

// Runtime evidence names consumed by the UAV composition. The
// integration layer maps EDDI outputs onto these.
const (
	// GPS-based localization ConSert inputs.
	EvGPSQualityOK = "gps-quality-ok" // enough satellites / RTK fix
	EvNoSpoofing   = "no-spoofing"    // Security EDDI: no active attack

	// Vision-based localization ConSert inputs.
	EvCameraHealthy       = "camera-healthy"       // vision sensor health ConSert
	EvPerceptionConfident = "perception-confident" // SafeML output

	// Vision-based nearby drone detection ConSert input.
	EvNearbyDroneDetection = "nearby-drone-detection-ok"

	// Communication-based localization ConSert inputs.
	EvCommsOK            = "comms-ok"
	EvNeighborsAvailable = "neighbors-available"

	// SafeDrones reliability estimation outputs.
	EvReliabilityHigh   = "reliability-high"
	EvReliabilityMedium = "reliability-medium"
)

// ConSert and guarantee identifiers of the Fig. 1 network.
const (
	ConSertGPSLoc    = "gps-localization"
	ConSertVisionLoc = "vision-localization"
	ConSertCommLoc   = "comm-localization"
	ConSertDroneDet  = "nearby-drone-detection"
	ConSertSafeDrone = "safedrones"
	ConSertNav       = "navigation"
	ConSertUAV       = "uav"

	GuaranteeGPSAccurate  = "gps-accurate"
	GuaranteeVisionUsable = "vision-usable"
	GuaranteeCommUsable   = "comm-usable"
	GuaranteeDetectionOK  = "detection-ok"
	GuaranteeRelHigh      = "rel-high"
	GuaranteeRelMedium    = "rel-medium"
	GuaranteeRelLow       = "rel-low"

	// Navigation guarantees (Fig. 1 numbered levels, rank = quality).
	GuaranteeNavHighPerf      = "high-performance-nav" // < 0.5 m
	GuaranteeNavCollaborative = "collaborative-nav"    // < 0.75 m
	GuaranteeNavAssistant     = "assistant-nav"        // < 1 m
	GuaranteeNavVision        = "vision-nav"           // < 1 m

	// UAV guarantees.
	GuaranteeUAVContinueTakeover = "continue-takeover" // can absorb extra tasks
	GuaranteeUAVContinue         = "continue"
	GuaranteeUAVHold             = "hold"
	GuaranteeUAVReturn           = "return-to-base"
)

// BuildUAVComposition wires the per-UAV ConSert network of Fig. 1.
func BuildUAVComposition() (*Composition, error) {
	gpsLoc := &ConSert{
		Name: ConSertGPSLoc,
		Guarantees: []Guarantee{{
			ID: GuaranteeGPSAccurate, Rank: 1,
			Description: "GPS localization accurate (quality factors nominal, no security attack)",
			Cond:        And(RtE(EvGPSQualityOK), RtE(EvNoSpoofing)),
		}},
	}
	visionLoc := &ConSert{
		Name: ConSertVisionLoc,
		Guarantees: []Guarantee{{
			ID: GuaranteeVisionUsable, Rank: 1,
			Description: "Vision-based localization usable (sensor healthy, perception reliable)",
			Cond:        And(RtE(EvCameraHealthy), RtE(EvPerceptionConfident)),
		}},
	}
	commLoc := &ConSert{
		Name: ConSertCommLoc,
		Guarantees: []Guarantee{{
			ID: GuaranteeCommUsable, Rank: 1,
			Description: "Communication-based localization usable (link and neighbours available)",
			Cond:        And(RtE(EvCommsOK), RtE(EvNeighborsAvailable)),
		}},
	}
	droneDet := &ConSert{
		Name: ConSertDroneDet,
		Guarantees: []Guarantee{{
			ID: GuaranteeDetectionOK, Rank: 1,
			Description: "Vision-based nearby drone detection operational",
			Cond:        And(RtE(EvCameraHealthy), RtE(EvNearbyDroneDetection)),
		}},
	}
	safeDrones := &ConSert{
		Name: ConSertSafeDrone,
		Guarantees: []Guarantee{
			{
				ID: GuaranteeRelHigh, Rank: 3,
				Description: "High reliability (propulsion, communication, energy control)",
				Cond:        RtE(EvReliabilityHigh),
			},
			{
				ID: GuaranteeRelMedium, Rank: 2,
				Description: "Medium reliability",
				Cond:        Or(RtE(EvReliabilityHigh), RtE(EvReliabilityMedium)),
			},
			{
				ID: GuaranteeRelLow, Rank: 1,
				Description: "Low reliability (always offered; consumers must degrade)",
			},
		},
	}
	nav := &ConSert{
		Name: ConSertNav,
		Guarantees: []Guarantee{
			{
				ID: GuaranteeNavHighPerf, Rank: 4,
				Description: "High performance navigation, accuracy < 0.5 m",
				Cond:        Demand(ConSertGPSLoc, GuaranteeGPSAccurate),
			},
			{
				ID: GuaranteeNavCollaborative, Rank: 3,
				Description: "Collaborative navigation, accuracy < 0.75 m",
				Cond: And(
					Demand(ConSertCommLoc, GuaranteeCommUsable),
					Demand(ConSertDroneDet, GuaranteeDetectionOK),
				),
			},
			{
				ID: GuaranteeNavAssistant, Rank: 2,
				Description: "Assistant navigation, accuracy < 1 m",
				Cond: And(
					Demand(ConSertCommLoc, GuaranteeCommUsable),
					Demand(ConSertVisionLoc, GuaranteeVisionUsable),
				),
			},
			{
				ID: GuaranteeNavVision, Rank: 1,
				Description: "Vision-based navigation, accuracy < 1 m",
				Cond:        Demand(ConSertVisionLoc, GuaranteeVisionUsable),
			},
		},
	}
	uav := &ConSert{
		Name: ConSertUAV,
		Guarantees: []Guarantee{
			{
				ID: GuaranteeUAVContinueTakeover, Rank: 4,
				Description: "Continue mission; can take over additional tasks",
				Cond: And(
					Demand(ConSertNav, GuaranteeNavHighPerf),
					Demand(ConSertSafeDrone, GuaranteeRelHigh),
				),
			},
			{
				ID: GuaranteeUAVContinue, Rank: 3,
				Description: "Continue mission",
				Cond: And(
					Or(
						Demand(ConSertNav, GuaranteeNavHighPerf),
						Demand(ConSertNav, GuaranteeNavCollaborative),
					),
					Demand(ConSertSafeDrone, GuaranteeRelMedium),
				),
			},
			{
				ID: GuaranteeUAVHold, Rank: 2,
				Description: "Hold position until the critical situation resolves",
				Cond: And(
					Or(
						Demand(ConSertNav, GuaranteeNavAssistant),
						Demand(ConSertNav, GuaranteeNavVision),
					),
					Demand(ConSertSafeDrone, GuaranteeRelMedium),
				),
			},
			{
				ID: GuaranteeUAVReturn, Rank: 1,
				Description: "Return to base / land under degraded navigation",
				Cond: Or(
					Demand(ConSertNav, GuaranteeNavVision),
					Demand(ConSertNav, GuaranteeNavAssistant),
					Demand(ConSertNav, GuaranteeNavCollaborative),
					Demand(ConSertNav, GuaranteeNavHighPerf),
				),
			},
			// Default (no guarantee satisfiable): emergency landing —
			// represented by Best == nil in the evaluation result.
		},
	}
	return NewComposition(gpsLoc, visionLoc, commLoc, droneDet, safeDrones, nav, uav)
}

// UAVAction is the flight action the UAV ConSert selects (Fig. 1).
type UAVAction int

// Actions in decreasing capability.
const (
	ActionEmergencyLand UAVAction = iota
	ActionReturnToBase
	ActionHold
	ActionContinue
	ActionContinueTakeover
)

func (a UAVAction) String() string {
	switch a {
	case ActionContinueTakeover:
		return "continue+takeover"
	case ActionContinue:
		return "continue"
	case ActionHold:
		return "hold"
	case ActionReturnToBase:
		return "return-to-base"
	case ActionEmergencyLand:
		return "emergency-land"
	default:
		return fmt.Sprintf("UAVAction(%d)", int(a))
	}
}

// CanContinue reports whether the action lets the mission proceed.
func (a UAVAction) CanContinue() bool {
	return a == ActionContinue || a == ActionContinueTakeover
}

// EvaluateUAV runs the composition and maps the UAV ConSert's best
// guarantee to a flight action (nil best = the modelled default,
// emergency landing).
func EvaluateUAV(comp *Composition, ev Evidence) (UAVAction, map[string]Result, error) {
	if comp == nil {
		return ActionEmergencyLand, nil, errors.New("conserts: nil composition")
	}
	results := comp.Evaluate(ev)
	action, err := uavActionFrom(results)
	return action, results, err
}

// UAVEvidence is the Fig. 1 network's evidence as a bit vector, one
// bit per runtime evidence name (UAVGPSQualityOK is EvGPSQualityOK,
// and so on). The network reads nothing else, so the vector fixes the
// selected action.
type UAVEvidence uint16

// The evidence bits, lowest first.
const (
	UAVGPSQualityOK UAVEvidence = 1 << iota
	UAVNoSpoofing
	UAVCameraHealthy
	UAVPerceptionConfident
	UAVNearbyDroneDetection
	UAVCommsOK
	UAVNeighborsAvailable
	UAVReliabilityHigh
	UAVReliabilityMedium
)

// uavEvidenceNames names the UAVEvidence bits, lowest first.
var uavEvidenceNames = [...]string{
	EvGPSQualityOK, EvNoSpoofing, EvCameraHealthy, EvPerceptionConfident,
	EvNearbyDroneDetection, EvCommsOK, EvNeighborsAvailable,
	EvReliabilityHigh, EvReliabilityMedium,
}

// Set returns e with bit set when v holds and cleared otherwise.
func (e UAVEvidence) Set(bit UAVEvidence, v bool) UAVEvidence {
	if v {
		return e | bit
	}
	return e &^ bit
}

// Evidence expands the vector into an evidence map that holds all nine
// names.
func (e UAVEvidence) Evidence() Evidence {
	ev := make(Evidence, len(uavEvidenceNames))
	for i, name := range uavEvidenceNames {
		ev[name] = e&(1<<i) != 0
	}
	return ev
}

// uavActions is the Fig. 1 network evaluated once per process under
// every evidence vector with EvaluateUAV.
var uavActions = sync.OnceValues(func() (*[1 << len(uavEvidenceNames)]UAVAction, error) {
	comp, err := BuildUAVComposition()
	if err != nil {
		return nil, err
	}
	var table [1 << len(uavEvidenceNames)]UAVAction
	for e := range table {
		if table[e], _, err = EvaluateUAV(comp, UAVEvidence(e).Evidence()); err != nil {
			return nil, err
		}
	}
	return &table, nil
})

// UAVActionOf returns the action the Fig. 1 network selects under the
// evidence vector: the per-tick hot path, one table read. It equals
// EvaluateUAV over BuildUAVComposition and ev.Evidence().
func UAVActionOf(ev UAVEvidence) (UAVAction, error) {
	table, err := uavActions()
	if err != nil {
		return ActionEmergencyLand, err
	}
	return table[ev&(1<<len(uavEvidenceNames)-1)], nil
}

// uavActionFrom maps the UAV ConSert's best guarantee to the flight
// action.
func uavActionFrom(results map[string]Result) (UAVAction, error) {
	uavRes, ok := results[ConSertUAV]
	if !ok {
		return ActionEmergencyLand, fmt.Errorf("conserts: composition has no %q ConSert", ConSertUAV)
	}
	if uavRes.Best == nil {
		return ActionEmergencyLand, nil
	}
	switch uavRes.Best.ID {
	case GuaranteeUAVContinueTakeover:
		return ActionContinueTakeover, nil
	case GuaranteeUAVContinue:
		return ActionContinue, nil
	case GuaranteeUAVHold:
		return ActionHold, nil
	case GuaranteeUAVReturn:
		return ActionReturnToBase, nil
	default:
		return ActionEmergencyLand, fmt.Errorf("conserts: unknown UAV guarantee %q", uavRes.Best.ID)
	}
}

// MissionDecision is the mission-level decider outcome (Fig. 1 top).
type MissionDecision int

// Decisions.
const (
	MissionAbort MissionDecision = iota
	MissionRedistribute
	MissionAsPlanned
)

func (d MissionDecision) String() string {
	switch d {
	case MissionAsPlanned:
		return "mission-complete-as-planned"
	case MissionRedistribute:
		return "task-redistribution-needed"
	case MissionAbort:
		return "mission-cannot-be-completed"
	default:
		return fmt.Sprintf("MissionDecision(%d)", int(d))
	}
}

// DecideMission aggregates per-UAV actions (Σ over UAVs in Fig. 1):
// every UAV able to continue means the mission completes as planned; at
// least one means tasks are redistributed among the remaining capable
// UAVs; none means the mission cannot be fully completed.
func DecideMission(actions map[string]UAVAction) (MissionDecision, error) {
	if len(actions) == 0 {
		return MissionAbort, errors.New("conserts: no UAVs to decide over")
	}
	capable := 0
	for _, a := range actions {
		if a.CanContinue() {
			capable++
		}
	}
	switch {
	case capable == len(actions):
		return MissionAsPlanned, nil
	case capable > 0:
		return MissionRedistribute, nil
	default:
		return MissionAbort, nil
	}
}
