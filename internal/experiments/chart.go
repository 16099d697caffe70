package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/asciiplot"
)

// Chart converts a numeric sweep table (first column = x axis, remaining
// columns = one series each) into an ASCII chart, or nil when the table
// is not chartable (non-numeric first column, fewer than two rows).
func (t *Table) Chart() *asciiplot.Chart {
	if len(t.Rows) < 2 || len(t.Header) < 2 {
		return nil
	}
	c := &asciiplot.Chart{Title: t.Title, XLabel: t.Header[0]}
	for col := 1; col < len(t.Header); col++ {
		s := asciiplot.Series{Label: t.Header[col]}
		for _, row := range t.Rows {
			if col >= len(row) {
				continue
			}
			x, errX := strconv.ParseFloat(row[0], 64)
			y, errY := strconv.ParseFloat(row[col], 64)
			if errX != nil || errY != nil {
				continue
			}
			s.Points = append(s.Points, asciiplot.Point{X: x, Y: y})
		}
		if len(s.Points) >= 2 {
			c.Series = append(c.Series, s)
		}
	}
	if len(c.Series) == 0 {
		return nil
	}
	return c
}

// Plot renders the table's chart, when it has one, and its heatmaps,
// each followed by a blank line.
func (t *Table) Plot(w io.Writer) error {
	if c := t.Chart(); c != nil {
		if err := c.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, hm := range t.Heatmaps {
		if err := hm.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
