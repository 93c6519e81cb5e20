package platform

import (
	"encoding/json"
	"strconv"

	"sesame/internal/detection"
	"sesame/internal/eddi"
	"sesame/internal/safeml"
)

// perceptionMonitor is the SafeML runtime monitor (paper §III-A2): it
// feeds each staged camera frame into the per-UAV sliding-window
// distribution monitor and, once the window fills, publishes the fused
// perception uncertainty on the chain blackboard for the risk monitor.
//
// The scheduler's prepare stages each frame: prepareObserveCell stages
// it just before the same cell runs this monitor, and a one-cell fleet
// that fans observe out stages every frame in a serial pass first.
// Either way one-cell captures draw from the shared detector stream in
// fleet order, which keeps runs bit-identical. The monitor itself only
// consumes its own staged frame and is therefore safe to run
// concurrently with other UAVs' chains.
type perceptionMonitor struct {
	p  *Platform
	st *uavState
	// pending is the frame captured for this tick, nil when the UAV is
	// not flying a perception workload. Written by prepare and consumed
	// by observe, on the same goroutine within a cell; in the one-cell
	// fan-out the worker handoff orders the accesses.
	pending *detection.Frame
}

func (m *perceptionMonitor) Name() string { return "safeml" }

// stage hands the monitor its frame for the coming observe phase.
func (m *perceptionMonitor) stage(f *detection.Frame) { m.pending = f }

func (m *perceptionMonitor) Observe(s eddi.Snapshot) ([]eddi.Event, eddi.Advice, error) {
	var events []eddi.Event
	if frame := m.pending; frame != nil {
		m.pending = nil
		countIn(&m.p.drops.perception, m.st.perception.Push(frame.Features))
		if m.st.perception.Ready() {
			if report, err := m.st.perception.Evaluate(); countIn(&m.p.drops.perception, err) {
				m.st.uncertainty = report.Uncertainty
				m.st.hasUncert = true
				events = append(events, eddi.Event{
					Kind: eddi.KindPerception, UAV: s.UAV, Time: s.Time,
					Severity: report.Uncertainty,
					Summary:  perceptionSummary(report.Uncertainty, report.Action),
				})
			}
		}
	}
	// Publish the persistent uncertainty state (fresh or carried over)
	// for the risk monitor downstream.
	s.Derived.Uncertainty = m.st.uncertainty
	s.Derived.HasUncertainty = m.st.hasUncert
	return events, eddi.Advice{}, nil
}

// perceptionSummary renders the event summary
// "perception uncertainty %.2f (%s)" byte for byte, in one allocation.
func perceptionSummary(u float64, a safeml.Action) string {
	var buf [48]byte
	b := strconv.AppendFloat(append(buf[:0], "perception uncertainty "...), u, 'f', 2, 64)
	b = append(append(append(b, " ("...), a.String()...), ')')
	return string(b)
}

// perceptionState is the checkpointed SafeML window plus any staged
// frame the observe phase had not consumed (possible when a later
// chain member halted before this monitor ran).
type perceptionState struct {
	Window  safeml.State     `json:"window"`
	Pending *detection.Frame `json:"pending,omitempty"`
}

// SnapshotState implements eddi.Snapshotter.
func (m *perceptionMonitor) SnapshotState() ([]byte, error) {
	return json.Marshal(perceptionState{Window: m.st.perception.State(), Pending: m.pending})
}

// RestoreState implements eddi.Snapshotter.
func (m *perceptionMonitor) RestoreState(data []byte) error {
	var s perceptionState
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if err := m.st.perception.Restore(s.Window); err != nil {
		return err
	}
	m.pending = s.Pending
	return nil
}
