package distq

// Partitioned group-by aggregation, the second state-intensive operator
// class the paper's architecture hosts (Query 1 ends in GROUP BY
// brokerName with min(price)). Aggregates here are decomposable: partial
// aggregates over disjoint tuple subsets merge into the exact total
// aggregate, which is what makes the operator compatible with the spill
// adaptation — a spilled generation's partial is merged back during
// cleanup, like the join's missed results.

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
)

// AggKind selects the aggregate function.
type AggKind int

// Aggregate functions over int64 values.
const (
	AggMin AggKind = iota
	AggMax
	AggSum
	AggCount
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	default:
		return "unknown"
	}
}

// AggCell is one group-by key's running aggregate.
type AggCell struct {
	Key   uint64
	Value int64
	Count uint64
}

// aggCellSize approximates a resident cell's accounted bytes.
const aggCellSize = 48

// Aggregate is a partitioned group-by aggregate operator (min/max/sum/
// count), the downstream operator of the paper's Query 1 (GROUP BY
// brokerName, min(price)). Its state is organized in partition groups
// like the join's, so the same adaptation machinery (spill extraction,
// relocation snapshots) applies: extracted partials merge back exactly.
// Not safe for concurrent use.
type Aggregate struct {
	kind   AggKind
	part   partition.Func
	groups map[partition.ID]map[uint64]*AggCell
	mem    int64
	// output counts processed tuples per group for the productivity
	// metric (each absorbed tuple "produces" one updated aggregate).
	updates map[partition.ID]uint64
}

// NewAggregate returns a group-by aggregate over the given number of
// partition groups.
func NewAggregate(kind AggKind, partitions int) *Aggregate {
	return &Aggregate{
		kind:    kind,
		part:    partition.NewFunc(partitions),
		groups:  make(map[partition.ID]map[uint64]*AggCell),
		updates: make(map[partition.ID]uint64),
	}
}

// Kind reports the aggregate function.
func (o *Aggregate) Kind() AggKind { return o.kind }

// MemBytes reports the accounted resident state size.
func (o *Aggregate) MemBytes() int64 { return o.mem }

// Process absorbs one (group-by key, value) pair.
func (o *Aggregate) Process(key uint64, value int64) {
	id := o.part.Of(key)
	g := o.groups[id]
	if g == nil {
		g = make(map[uint64]*AggCell)
		o.groups[id] = g
	}
	o.updates[id]++
	c, ok := g[key]
	if !ok {
		c = &AggCell{Key: key, Count: 1, Value: value}
		if o.kind == AggCount {
			c.Value = 1 // Count ignores the input value
		}
		g[key] = c
		o.mem += aggCellSize
		return
	}
	c.Count++
	switch o.kind {
	case AggMin:
		if value < c.Value {
			c.Value = value
		}
	case AggMax:
		if value > c.Value {
			c.Value = value
		}
	case AggSum:
		c.Value += value
	case AggCount:
		c.Value++
	}
}

// Value returns the aggregate for a group-by key.
func (o *Aggregate) Value(key uint64) (int64, bool) {
	g := o.groups[o.part.Of(key)]
	if g == nil {
		return 0, false
	}
	c, ok := g[key]
	if !ok {
		return 0, false
	}
	return c.Value, true
}

// Keys returns all group-by keys with resident aggregates, sorted.
func (o *Aggregate) Keys() []uint64 {
	var keys []uint64
	for _, g := range o.groups {
		for k := range g {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Stats returns per-partition-group statistics compatible with the
// adaptation policies.
func (o *Aggregate) Stats() []core.GroupStats {
	stats := make([]core.GroupStats, 0, len(o.groups))
	for id, g := range o.groups {
		stats = append(stats, core.GroupStats{
			ID:     id,
			Size:   int64(len(g)) * aggCellSize,
			Output: o.updates[id],
		})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	return stats
}

// AggPartial is the serializable partial aggregate of one partition
// group, the analogue of the join's GroupSnapshot.
type AggPartial struct {
	ID    partition.ID
	Kind  AggKind
	Cells []AggCell
}

// Extract removes the group's resident cells as a partial aggregate
// (spill extraction). Returns nil if the group holds nothing.
func (o *Aggregate) Extract(id partition.ID) *AggPartial {
	g := o.groups[id]
	if len(g) == 0 {
		return nil
	}
	p := &AggPartial{ID: id, Kind: o.kind, Cells: make([]AggCell, 0, len(g))}
	for _, c := range g {
		p.Cells = append(p.Cells, *c)
	}
	sort.Slice(p.Cells, func(i, j int) bool { return p.Cells[i].Key < p.Cells[j].Key })
	o.mem -= int64(len(g)) * aggCellSize
	delete(o.groups, id)
	return p
}

// Merge folds a partial aggregate back into the operator, exactly
// reconstructing the aggregate over the union of the tuple sets — the
// cleanup-phase analogue of the join's generation merge.
func (o *Aggregate) Merge(p *AggPartial) error {
	if p.Kind != o.kind {
		return fmt.Errorf("distq: merging %s partial into %s aggregate", p.Kind, o.kind)
	}
	g := o.groups[p.ID]
	if g == nil {
		g = make(map[uint64]*AggCell)
		o.groups[p.ID] = g
	}
	for _, pc := range p.Cells {
		c, ok := g[pc.Key]
		if !ok {
			cp := pc
			g[pc.Key] = &cp
			o.mem += aggCellSize
			continue
		}
		c.Count += pc.Count
		switch o.kind {
		case AggMin:
			if pc.Value < c.Value {
				c.Value = pc.Value
			}
		case AggMax:
			if pc.Value > c.Value {
				c.Value = pc.Value
			}
		case AggSum, AggCount:
			c.Value += pc.Value
		}
	}
	return nil
}
