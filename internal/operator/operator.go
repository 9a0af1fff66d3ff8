// Package operator provides the stateless operators of the paper's query
// plans — select and project — plus composition. The paper's §2 notes
// that stateless operators "are evenly distributed among all available
// machines ... as they consume very limited memory"; here they run
// inline on the data path: a chain can be attached in front of a query
// engine's join (filtering/rewriting tuples before they enter operator
// state) or applied at the split host before routing.
package operator

import "repro/internal/tuple"

// Operator transforms one tuple into zero or one tuples. Returning false
// drops the tuple (selection); returning a modified tuple rewrites it
// (projection). Operators must not retain references to the tuple.
type Operator interface {
	Apply(t tuple.Tuple) (tuple.Tuple, bool)
	// Name labels the operator in plans and logs.
	Name() string
}

// Select drops tuples failing the predicate.
type Select struct {
	// Label names the predicate in plans.
	Label string
	// Pred keeps a tuple when it returns true.
	Pred func(*tuple.Tuple) bool
}

// Name implements Operator.
func (s Select) Name() string {
	if s.Label != "" {
		return "select(" + s.Label + ")"
	}
	return "select"
}

// Apply implements Operator.
func (s Select) Apply(t tuple.Tuple) (tuple.Tuple, bool) {
	if s.Pred == nil || s.Pred(&t) {
		return t, true
	}
	return tuple.Tuple{}, false
}

// Project rewrites a tuple (typically narrowing its payload, the
// projection of the paper's query plans; key rewriting enables join-column
// normalization).
type Project struct {
	Label string
	// Map returns the rewritten tuple.
	Map func(tuple.Tuple) tuple.Tuple
}

// Name implements Operator.
func (p Project) Name() string {
	if p.Label != "" {
		return "project(" + p.Label + ")"
	}
	return "project"
}

// Apply implements Operator.
func (p Project) Apply(t tuple.Tuple) (tuple.Tuple, bool) {
	if p.Map == nil {
		return t, true
	}
	return p.Map(t), true
}

// Chain applies operators in order, stopping at the first drop.
type Chain []Operator

// Name implements Operator.
func (c Chain) Name() string {
	name := "chain["
	for i, op := range c {
		if i > 0 {
			name += " -> "
		}
		name += op.Name()
	}
	return name + "]"
}

// Apply implements Operator.
func (c Chain) Apply(t tuple.Tuple) (tuple.Tuple, bool) {
	for _, op := range c {
		var ok bool
		if t, ok = op.Apply(t); !ok {
			return tuple.Tuple{}, false
		}
	}
	return t, true
}
