package cover

import (
	"sync"

	"snowboard/internal/trace"
)

// Edge is a pair of consecutively executed access sites — the sequential
// edge-coverage metric Syzkaller exports and Snowboard selects sequential
// tests by. Unlike the concurrency metrics, edges deliberately include
// stack and atomic accesses: sequential coverage cares about control flow,
// not communication.
type Edge [2]trace.Ins

// Edges accumulates sequential edge coverage. It is safe for concurrent
// use. It replaces the redundant fuzz.Coverage.
type Edges struct {
	mu    sync.Mutex
	edges map[Edge]bool
}

// NewEdges returns an empty accumulator.
func NewEdges() *Edges {
	return &Edges{edges: make(map[Edge]bool)}
}

// AddTrace folds one trace's edge set in, reporting how many were new.
func (c *Edges) AddTrace(tr *trace.Trace) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh := 0
	var prev trace.Ins
	for i, n := 0, tr.Len(); i < n; i++ {
		cur := tr.InsAt(i)
		if i > 0 {
			e := Edge{prev, cur}
			if !c.edges[e] {
				c.edges[e] = true
				fresh++
			}
		}
		prev = cur
	}
	return fresh
}

// Merge folds o's edges in, reporting how many were new. Commutative
// and associative.
func (c *Edges) Merge(o *Edges) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh := 0
	for e := range o.edges {
		if !c.edges[e] {
			c.edges[e] = true
			fresh++
		}
	}
	return fresh
}

// Len reports the accumulated edge count.
func (c *Edges) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.edges)
}
