// Package security implements the Security EDDI (paper §III-B): a
// runtime monitor that subscribes to IDS alerts on the MQTT broker,
// maps each alert onto the leaves of an attack tree, and traces the
// attack path from the leaves toward the root. Reaching the root means
// the adversary's end goal is achieved — a critical security event —
// at which point the EDDI emits a compromise event carrying the
// attack path and the modelled mitigation (in the §V-C scenario:
// trigger Collaborative Localization and land the UAV safely).
package security

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sesame/internal/attacktree"
	"sesame/internal/ids"
	"sesame/internal/mqttlite"
)

// Event is a detected compromise (attack-tree root reached) or
// progress report (new nodes satisfied).
type Event struct {
	UAV string
	// Root is the attack tree's goal node id.
	Root string
	// RootReached marks a full compromise; false means partial
	// progress only.
	RootReached bool
	// Path is the satisfied chain leaf->root when RootReached.
	Path []string
	// Severity and Mitigation come from the goal node's metadata.
	Severity   attacktree.Severity
	Mitigation string
	// Alert is the IDS alert that completed the path.
	Alert ids.Alert
}

// Handler consumes security events.
type Handler func(Event)

// EDDI is the per-fleet security monitor. Create with New, attach one
// attack tree per UAV with Monitor, and register compromise handlers
// with OnEvent.
type EDDI struct {
	broker *mqttlite.Broker

	mu        sync.Mutex
	trees     map[string][]*attacktree.Tree // uav -> monitored trees
	triggered map[string]map[string]bool    // uav -> leaf id -> true
	reported  map[string]bool               // CompromiseKey(uav, root) -> reported
	events    []Event
	handlers  []Handler
	cancels   []func()
}

// New returns an EDDI bound to the alert broker.
func New(broker *mqttlite.Broker) (*EDDI, error) {
	if broker == nil {
		return nil, errors.New("security: nil broker")
	}
	return &EDDI{
		broker:    broker,
		trees:     make(map[string][]*attacktree.Tree),
		triggered: make(map[string]map[string]bool),
		reported:  make(map[string]bool),
	}, nil
}

// OnEvent registers a handler invoked for every emitted event
// (compromises and progress). Handlers run synchronously on the
// broker's delivery path.
func (e *EDDI) OnEvent(h Handler) error {
	if h == nil {
		return errors.New("security: nil handler")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers = append(e.handlers, h)
	return nil
}

// Monitor attaches an attack tree for the given UAV, subscribing to
// its IDS alert topic on first use. Multiple trees per UAV are
// supported (e.g. map-manipulation and C2-hijack), as long as their
// root ids differ.
func (e *EDDI) Monitor(uav string, tree *attacktree.Tree) error {
	if uav == "" {
		return errors.New("security: empty UAV id")
	}
	if tree == nil {
		return errors.New("security: nil tree")
	}
	e.mu.Lock()
	firstForUAV := len(e.trees[uav]) == 0
	for _, existing := range e.trees[uav] {
		if existing.Root().ID == tree.Root().ID {
			e.mu.Unlock()
			return fmt.Errorf("security: UAV %q already monitors tree %q", uav, tree.Root().ID)
		}
	}
	e.trees[uav] = append(e.trees[uav], tree)
	if e.triggered[uav] == nil {
		e.triggered[uav] = make(map[string]bool)
	}
	e.mu.Unlock()

	if !firstForUAV {
		return nil
	}
	cancel, err := e.broker.Subscribe(ids.AlertTopic(uav), func(m mqttlite.Message) {
		var a ids.Alert
		if err := json.Unmarshal(m.Payload, &a); err != nil {
			return
		}
		e.ingest(uav, a)
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.cancels = append(e.cancels, cancel)
	e.mu.Unlock()
	return nil
}

// ingest marks the alert's leaves and re-evaluates every tree the UAV
// carries.
func (e *EDDI) ingest(uav string, a ids.Alert) {
	e.mu.Lock()
	trees := e.trees[uav]
	if len(trees) == 0 {
		e.mu.Unlock()
		return
	}
	var toEmit []Event
	for _, tree := range trees {
		leaves := tree.LeavesForAlert(a.Type)
		if len(leaves) == 0 {
			continue
		}
		newly := false
		for _, l := range leaves {
			if !e.triggered[uav][l.ID] {
				e.triggered[uav][l.ID] = true
				newly = true
			}
		}
		if !newly {
			continue
		}
		ev := tree.Evaluate(e.triggered[uav])
		out := Event{
			UAV:         uav,
			Root:        tree.Root().ID,
			RootReached: ev.RootReached,
			Path:        ev.Path,
			Severity:    tree.Root().Severity,
			Mitigation:  tree.Root().Mitigation,
			Alert:       a,
		}
		if ev.RootReached {
			key := CompromiseKey(uav, tree.Root().ID)
			if e.reported[key] {
				continue
			}
			e.reported[key] = true
		}
		e.events = append(e.events, out)
		toEmit = append(toEmit, out)
	}
	handlers := append([]Handler(nil), e.handlers...)
	e.mu.Unlock()
	for _, out := range toEmit {
		for _, h := range handlers {
			h(out)
		}
	}
}

// Events returns a copy of all emitted events.
func (e *EDDI) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Event(nil), e.events...)
}

// Compromised reports whether any of the UAV's attack-tree roots has
// been reached.
func (e *EDDI) Compromised(uav string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, tree := range e.trees[uav] {
		if e.reported[CompromiseKey(uav, tree.Root().ID)] {
			return true
		}
	}
	return false
}

// CompromisedBy reports whether the specific attack-tree root has been
// reached for the UAV.
func (e *EDDI) CompromisedBy(uav, rootID string) bool {
	return e.CompromisedKey(CompromiseKey(uav, rootID))
}

// CompromiseKey names the UAV's attack-tree root for CompromisedKey.
func CompromiseKey(uav, rootID string) string { return uav + "/" + rootID }

// CompromisedKey is CompromisedBy over a key from CompromiseKey, for
// callers that query the same root every tick.
func (e *EDDI) CompromisedKey(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reported[key]
}

// TriggeredLeaves returns the sorted ids of currently satisfied leaves
// for the UAV.
func (e *EDDI) TriggeredLeaves(uav string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for id := range e.triggered[uav] {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Reset clears the UAV's triggered state (e.g. after remediation), so
// a repeat attack is reported again.
func (e *EDDI) Reset(uav string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m := e.triggered[uav]; m != nil {
		for k := range m {
			delete(m, k)
		}
	}
	for _, tree := range e.trees[uav] {
		delete(e.reported, CompromiseKey(uav, tree.Root().ID))
	}
}

// Close cancels all broker subscriptions.
func (e *EDDI) Close() {
	e.mu.Lock()
	cancels := e.cancels
	e.cancels = nil
	e.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}
