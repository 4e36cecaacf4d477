package plot

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
)

// ASCIIScatter renders points on a character grid with axes and legend.
func ASCIIScatter(pts []Pt, ax Axes) string {
	ax = ax.sized()
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	xlo, xhi := dataRange(xs)
	ylo, yhi := dataRange(ys)
	if ax.YMax > ax.YMin {
		ylo, yhi = ax.YMin, ax.YMax
	}
	grid := newGrid(ax.Width, ax.Height)
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			continue
		}
		grid.set(
			scale(p.X, xlo, xhi, ax.Width),
			scale(p.Y, ylo, yhi, ax.Height),
			markerFor(p.Class),
		)
	}
	return grid.render(ax, xlo, xhi, ylo, yhi, legendASCII(ax.ClassNames))
}

// ASCIIBoxes renders box plots, one row per labelled box, on a shared
// horizontal scale (used for Figure 4).
func ASCIIBoxes(labels []string, boxes []stats.BoxStats, ax Axes) string {
	ax = ax.sized()
	var vals []float64
	for _, bx := range boxes {
		vals = append(vals, bx.LoWhisk, bx.HiWhisk, bx.Median)
	}
	lo, hi := dataRange(vals)
	if ax.YMax > ax.YMin {
		lo, hi = ax.YMin, ax.YMax
	}
	labelW := labelWidth(labels)
	var b strings.Builder
	if ax.Title != "" {
		fmt.Fprintf(&b, "%s\n", ax.Title)
	}
	for i, bx := range boxes {
		row := make([]byte, ax.Width+1)
		for j := range row {
			row[j] = ' '
		}
		put := func(v float64, c byte) {
			j := scale(v, lo, hi, ax.Width)
			if j >= 0 && j < len(row) {
				row[j] = c
			}
		}
		// whisker span
		from := scale(bx.LoWhisk, lo, hi, ax.Width)
		to := scale(bx.HiWhisk, lo, hi, ax.Width)
		for j := from; j <= to && j < len(row); j++ {
			if j >= 0 {
				row[j] = '-'
			}
		}
		// box span
		q1 := scale(bx.Q1, lo, hi, ax.Width)
		q3 := scale(bx.Q3, lo, hi, ax.Width)
		for j := q1; j <= q3 && j < len(row); j++ {
			if j >= 0 {
				row[j] = '='
			}
		}
		put(bx.LoWhisk, '|')
		put(bx.HiWhisk, '|')
		put(bx.Q1, '[')
		put(bx.Q3, ']')
		put(bx.Median, 'M')
		label := ""
		if i < len(labels) {
			label = labels[i]
		}
		fmt.Fprintf(&b, "%s %s (n=%d)\n", padLabel(label, labelW), string(row), bx.N)
	}
	fmt.Fprintf(&b, "%s %s … %s\n", padLabel("scale:", labelW), fmtTick(lo), fmtTick(hi))
	return b.String()
}

// --- grid machinery ---

type grid struct {
	w, h  int
	cells [][]byte
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h, cells: make([][]byte, h+1)}
	for i := range g.cells {
		g.cells[i] = bytesRepeat(' ', w+1)
	}
	return g
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func (g *grid) set(x, y int, c byte) {
	if x < 0 || y < 0 || x > g.w || y > g.h {
		return
	}
	g.cells[g.h-y][x] = c // y grows upward
}

// scale maps v ∈ [lo, hi] to a grid column in [0, n]. NaN values have
// no position (-1, off-grid). A degenerate range (hi <= lo, e.g. a
// constant-valued series under a forced axis) centers every point
// instead of dropping it, so the plot still shows the data.
func scale(v, lo, hi float64, n int) int {
	if math.IsNaN(v) {
		return -1
	}
	if hi <= lo {
		return n / 2
	}
	return int((v - lo) / (hi - lo) * float64(n))
}

func (g *grid) render(ax Axes, xlo, xhi, ylo, yhi float64, legend string) string {
	var b strings.Builder
	if ax.Title != "" {
		fmt.Fprintf(&b, "%s\n", ax.Title)
	}
	yloS, yhiS := fmtTick(ylo), fmtTick(yhi)
	gutter := len(yloS)
	if len(yhiS) > gutter {
		gutter = len(yhiS)
	}
	for i, row := range g.cells {
		label := strings.Repeat(" ", gutter)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", gutter, yhiS)
		case len(g.cells) - 1:
			label = fmt.Sprintf("%*s", gutter, yloS)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", gutter), strings.Repeat("-", g.w+1))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", gutter), g.w-len(fmtTick(xhi))+1, fmtTick(xlo), fmtTick(xhi))
	if ax.XLabel != "" || ax.YLabel != "" {
		fmt.Fprintf(&b, "x: %s   y: %s\n", ax.XLabel, ax.YLabel)
	}
	if legend != "" {
		fmt.Fprintf(&b, "%s\n", legend)
	}
	return b.String()
}

func legendASCII(names []string) string {
	if len(names) == 0 {
		return ""
	}
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%c=%s", markerFor(i), n)
	}
	return "legend: " + strings.Join(parts, "  ")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
