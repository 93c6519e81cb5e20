// Package conserts implements Conditional Safety Certificates
// (ConSerts, paper §II-B; Reich et al., SAFECOMP 2020) — the key
// integrating technology of the SESAME stack. A ConSert offers a set
// of ranked guarantees, each conditioned on a boolean expression over
// runtime evidence (RtE, fed by the other EDDI technologies) and
// demands on guarantees offered by other ConSerts. At runtime the
// composition is resolved bottom-up: every ConSert reports the set of
// guarantees it can currently certify, and consumers read the
// best-ranked one.
//
// The concrete hierarchical UAV network of the paper's Fig. 1 —
// localization ConSerts feeding a navigation ConSert feeding the
// per-UAV ConSert, with a mission-level decider over all UAVs — is
// provided by BuildUAVComposition and DecideMission.
package conserts

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Evidence carries the runtime evidence truth values, keyed by RtE
// name. Missing names evaluate to false (fail-safe).
type Evidence map[string]bool

// Expr is a boolean condition over evidence and demands.
type Expr interface {
	eval(ev Evidence, satisfied map[string]bool) bool
	demands(into []string) []string
	String() string
}

// RtE references a runtime evidence item by name.
func RtE(name string) Expr { return rte(name) }

type rte string

func (r rte) eval(ev Evidence, _ map[string]bool) bool { return ev[string(r)] }
func (r rte) demands(into []string) []string           { return into }
func (r rte) String() string                           { return "rte:" + string(r) }

// Demand references a guarantee of another ConSert as
// "consert/guarantee". It is satisfied when the provider currently
// certifies that guarantee.
func Demand(consert, guarantee string) Expr {
	return demand(consert + "/" + guarantee)
}

type demand string

func (d demand) eval(_ Evidence, satisfied map[string]bool) bool { return satisfied[string(d)] }
func (d demand) demands(into []string) []string                  { return append(into, string(d)) }
func (d demand) String() string                                  { return "demand:" + string(d) }

// And is true when all children are true.
func And(children ...Expr) Expr { return nary{op: "and", kids: children} }

// Or is true when any child is true.
func Or(children ...Expr) Expr { return nary{op: "or", kids: children} }

type nary struct {
	op   string
	kids []Expr
}

func (n nary) eval(ev Evidence, sat map[string]bool) bool {
	if n.op == "and" {
		for _, k := range n.kids {
			if !k.eval(ev, sat) {
				return false
			}
		}
		return true
	}
	for _, k := range n.kids {
		if k.eval(ev, sat) {
			return true
		}
	}
	return false
}

func (n nary) demands(into []string) []string {
	for _, k := range n.kids {
		into = k.demands(into)
	}
	return into
}

func (n nary) String() string {
	parts := make([]string, len(n.kids))
	for i, k := range n.kids {
		parts[i] = k.String()
	}
	return n.op + "(" + strings.Join(parts, ", ") + ")"
}

// Guarantee is one conditional certificate a ConSert can offer.
type Guarantee struct {
	// ID is unique within the ConSert.
	ID string
	// Rank orders guarantees; higher is better. The evaluation reports
	// the best satisfied rank.
	Rank int
	// Cond is the certification condition. A nil Cond is always true
	// (an unconditional guarantee).
	Cond Expr
	// Description is free-text for reports.
	Description string
}

// ConSert is a set of ranked guarantees for one system or subsystem.
type ConSert struct {
	Name       string
	Guarantees []Guarantee
}

// Validate checks the ConSert is well-formed.
func (c *ConSert) Validate() error {
	if c.Name == "" {
		return errors.New("conserts: empty ConSert name")
	}
	if strings.Contains(c.Name, "/") {
		return fmt.Errorf("conserts: name %q must not contain '/'", c.Name)
	}
	if len(c.Guarantees) == 0 {
		return fmt.Errorf("conserts: %q offers no guarantees", c.Name)
	}
	seen := map[string]bool{}
	for _, g := range c.Guarantees {
		if g.ID == "" {
			return fmt.Errorf("conserts: %q has guarantee with empty id", c.Name)
		}
		if seen[g.ID] {
			return fmt.Errorf("conserts: %q has duplicate guarantee %q", c.Name, g.ID)
		}
		seen[g.ID] = true
	}
	return nil
}

// Composition is a set of ConSerts wired by demands.
type Composition struct {
	conserts map[string]*ConSert
	order    []string // topological evaluation order
}

// NewComposition validates the ConSerts, resolves demand references,
// and computes a topological evaluation order (demands must be
// acyclic).
func NewComposition(conserts ...*ConSert) (*Composition, error) {
	if len(conserts) == 0 {
		return nil, errors.New("conserts: empty composition")
	}
	comp := &Composition{conserts: make(map[string]*ConSert, len(conserts))}
	for _, c := range conserts {
		if c == nil {
			return nil, errors.New("conserts: nil ConSert")
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := comp.conserts[c.Name]; dup {
			return nil, fmt.Errorf("conserts: duplicate ConSert %q", c.Name)
		}
		comp.conserts[c.Name] = c
	}
	// Build dependency edges from demands and check references.
	deps := make(map[string]map[string]bool) // consert -> set of consert deps
	for name, c := range comp.conserts {
		deps[name] = make(map[string]bool)
		for _, g := range c.Guarantees {
			if g.Cond == nil {
				continue
			}
			for _, d := range g.Cond.demands(nil) {
				i := strings.Index(d, "/")
				provider, gid := d[:i], d[i+1:]
				pc, ok := comp.conserts[provider]
				if !ok {
					return nil, fmt.Errorf("conserts: %q demands unknown ConSert %q", name, provider)
				}
				found := false
				for _, pg := range pc.Guarantees {
					if pg.ID == gid {
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("conserts: %q demands unknown guarantee %q of %q", name, gid, provider)
				}
				if provider != name {
					deps[name][provider] = true
				}
			}
		}
	}
	// Kahn topological sort (deterministic by name).
	indeg := make(map[string]int)
	rdeps := make(map[string][]string)
	for name, ds := range deps {
		indeg[name] = len(ds)
		for d := range ds {
			rdeps[d] = append(rdeps[d], name)
		}
	}
	var ready []string
	for name, d := range indeg {
		if d == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		comp.order = append(comp.order, n)
		consumers := append([]string(nil), rdeps[n]...)
		sort.Strings(consumers)
		for _, c := range consumers {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
				sort.Strings(ready)
			}
		}
	}
	if len(comp.order) != len(comp.conserts) {
		return nil, errors.New("conserts: demand cycle detected")
	}
	return comp, nil
}

// Result is the evaluation outcome for one ConSert.
type Result struct {
	ConSert string
	// Satisfied lists the ids of all currently certified guarantees.
	Satisfied []string
	// Best is the highest-ranked satisfied guarantee, or nil when none
	// is certified (the caller should apply its modelled default, e.g.
	// emergency landing).
	Best *Guarantee
}

// Evaluate resolves the whole composition bottom-up under the given
// evidence and returns per-ConSert results.
func (comp *Composition) Evaluate(ev Evidence) map[string]Result {
	satisfied := make(map[string]bool)
	out := make(map[string]Result, len(comp.conserts))
	for _, name := range comp.order {
		c := comp.conserts[name]
		res := Result{ConSert: name}
		for i := range c.Guarantees {
			g := &c.Guarantees[i]
			if g.Cond == nil || g.Cond.eval(ev, satisfied) {
				satisfied[name+"/"+g.ID] = true
				res.Satisfied = append(res.Satisfied, g.ID)
				if res.Best == nil || g.Rank > res.Best.Rank {
					res.Best = g
				}
			}
		}
		sort.Strings(res.Satisfied)
		out[name] = res
	}
	return out
}

// ConSertNames returns the composition members in evaluation order.
func (comp *Composition) ConSertNames() []string {
	return append([]string(nil), comp.order...)
}
