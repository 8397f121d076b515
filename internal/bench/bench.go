// Package bench provides the measurement harness behind the experiment
// tables: per-tuple delay recording (wall clock and machine-independent
// operation counts), and fixed-width table rendering for the paper-shaped
// reports of cmd/cqbench and EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"
	"time"

	"cqrep/internal/relation"
)

// Iterator is the minimal stream interface measured by the harness.
type Iterator interface {
	Next() (relation.Tuple, bool)
}

// OpsCounter is implemented by iterators that expose a machine-independent
// work counter.
type OpsCounter interface {
	Ops() uint64
}

// DelayStats summarizes one enumeration: tuple count, total answer time,
// and worst per-tuple delay in both nanoseconds and operations. The delay
// includes the time to produce the first tuple and the time to detect the
// end of the enumeration, matching the paper's definition.
type DelayStats struct {
	Tuples   int
	Total    time.Duration
	MaxDelay time.Duration
	MaxOps   uint64
	TotalOps uint64
	FirstOut time.Duration
}

// Measure drains the iterator, recording per-tuple gaps.
func Measure(it Iterator) DelayStats {
	var st DelayStats
	var oc OpsCounter
	if c, ok := it.(OpsCounter); ok {
		oc = c
	}
	start := time.Now()
	last := start
	var lastOps uint64
	for {
		_, ok := it.Next()
		now := time.Now()
		gap := now.Sub(last)
		if gap > st.MaxDelay {
			st.MaxDelay = gap
		}
		if oc != nil {
			ops := oc.Ops()
			if ops-lastOps > st.MaxOps {
				st.MaxOps = ops - lastOps
			}
			lastOps = ops
		}
		if !ok {
			break
		}
		if st.Tuples == 0 {
			st.FirstOut = now.Sub(start)
		}
		st.Tuples++
		last = now
	}
	st.Total = time.Since(start)
	if oc != nil {
		st.TotalOps = oc.Ops()
	}
	return st
}

// Aggregate folds many per-request DelayStats into worst-case and totals.
type Aggregate struct {
	Requests  int
	Tuples    int
	MaxDelay  time.Duration
	MaxOps    uint64
	TotalTime time.Duration
	TotalOps  uint64
}

// Add folds one measurement into the aggregate.
func (a *Aggregate) Add(st DelayStats) {
	a.Requests++
	a.Tuples += st.Tuples
	if st.MaxDelay > a.MaxDelay {
		a.MaxDelay = st.MaxDelay
	}
	if st.MaxOps > a.MaxOps {
		a.MaxOps = st.MaxOps
	}
	a.TotalTime += st.Total
	a.TotalOps += st.TotalOps
}

// Percentile returns the q-quantile of ascending-sorted durations by
// nearest rank, rounded to the microsecond (the delay reports' unit).
// An empty slice yields 0. The cqload load generator reports its delay
// percentiles through it.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

// Table is a fixed-width report table.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row, formatting each cell with %v (floats get %.3g).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString("## ")
	b.WriteString(t.Title)
	b.WriteByte('\n')
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
