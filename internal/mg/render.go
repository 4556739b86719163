package mg

import (
	"fmt"
	"strings"
)

// This file renders executions and tuned tables for human inspection:
// RenderShape draws the multigrid cycle diagrams of Figures 5 and 14 in
// ASCII (time flows left to right, coarser grids are lower rows), and
// DescribeV / DescribeFull print the tuned call trees of Figure 4.

// RenderShape draws a ShapeLog as an ASCII cycle diagram. Notation follows
// the paper's Figure 5: 'o' is one relaxation, '\' a restriction, '/' an
// interpolation, "D" a direct solve, and "~k~" an iterative (SOR) solve of
// k sweeps. The left margin labels the recursion level (grid size 2^k+1).
func RenderShape(log *ShapeLog) string {
	if len(log.Events) == 0 {
		return "(empty cycle)\n"
	}
	maxLvl, minLvl := 1, 1<<30
	for _, ev := range log.Events {
		l := ev.Level
		if ev.Kind == EvRestrict || ev.Kind == EvInterp {
			// The transition glyph is drawn on the coarser row.
			if l-1 < minLvl {
				minLvl = l - 1
			}
		}
		if l > maxLvl {
			maxLvl = l
		}
		if l < minLvl {
			minLvl = l
		}
	}
	rows := maxLvl - minLvl + 1
	row := func(level int) int { return maxLvl - level }

	var cells [][]string
	for r := 0; r < rows; r++ {
		cells = append(cells, nil)
	}
	col := 0
	put := func(r int, glyph string) {
		for len(cells[r]) < col {
			cells[r] = append(cells[r], "")
		}
		cells[r] = append(cells[r], glyph)
		col++
	}
	for _, ev := range log.Events {
		switch ev.Kind {
		case EvRelax:
			put(row(ev.Level), strings.Repeat("o", ev.Count))
		case EvRestrict:
			put(row(ev.Level-1), `\`)
		case EvInterp:
			put(row(ev.Level-1), "/")
		case EvDirect:
			put(row(ev.Level), "D")
		case EvIterSolve:
			put(row(ev.Level), fmt.Sprintf("~%d~", ev.Count))
		case EvResidual:
			// Residual evaluations are part of the restriction path and are
			// not drawn, as in the paper's figures.
		}
	}
	// Column widths: max glyph width per column.
	width := 0
	for _, r := range cells {
		if len(r) > width {
			width = len(r)
		}
	}
	colw := make([]int, width)
	for _, r := range cells {
		for c, g := range r {
			if len(g) > colw[c] {
				colw[c] = len(g)
			}
		}
	}
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&sb, "%2d |", maxLvl-r)
		for c := 0; c < width; c++ {
			g := ""
			if c < len(cells[r]) {
				g = cells[r][c]
			}
			sb.WriteString(g)
			for p := len(g); p < colw[c]; p++ {
				sb.WriteByte(' ')
			}
		}
		// Trim trailing spaces.
		line := strings.TrimRight(sb.String(), " ")
		sb.Reset()
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DescribeV prints the tuned call tree of MULTIGRID-Vᵢ at the given level
// as indented text, one line per tuned function invocation — the textual
// form of the paper's Figure 4 call stacks.
func DescribeV(t *VTable, level, accIdx int) string {
	var sb strings.Builder
	describeV(&sb, t, level, accIdx, 0)
	return sb.String()
}

func describeV(sb *strings.Builder, t *VTable, level, accIdx, depth int) {
	indent := strings.Repeat("  ", depth)
	n := (1 << uint(level)) + 1
	if level <= 1 {
		fmt.Fprintf(sb, "%sMULTIGRID-V%d @ level %d (N=%d): direct\n", indent, accIdx+1, level, n)
		return
	}
	p := t.Plan(level, accIdx)
	switch p.Choice {
	case ChoiceDirect:
		fmt.Fprintf(sb, "%sMULTIGRID-V%d @ level %d (N=%d): direct\n", indent, accIdx+1, level, n)
	case ChoiceSOR:
		fmt.Fprintf(sb, "%sMULTIGRID-V%d @ level %d (N=%d): SOR ×%d\n", indent, accIdx+1, level, n, p.Iters)
	case ChoiceVCycle:
		fmt.Fprintf(sb, "%sMULTIGRID-V%d @ level %d (N=%d): standard V-cycle ×%d\n",
			indent, accIdx+1, level, n, p.Iters)
	case ChoiceRecurse:
		fmt.Fprintf(sb, "%sMULTIGRID-V%d @ level %d (N=%d): RECURSE%d ×%d\n",
			indent, accIdx+1, level, n, p.Sub+1, p.Iters)
		describeV(sb, t, level-1, p.Sub, depth+1)
	}
}

// DescribeFull prints the tuned call tree of FULL-MULTIGRIDᵢ at the given
// level, descending through estimate and solve phases.
func DescribeFull(f *FTable, v *VTable, level, accIdx int) string {
	var sb strings.Builder
	describeFull(&sb, f, v, level, accIdx, 0)
	return sb.String()
}

func describeFull(sb *strings.Builder, f *FTable, v *VTable, level, accIdx, depth int) {
	indent := strings.Repeat("  ", depth)
	n := (1 << uint(level)) + 1
	if level <= 1 {
		fmt.Fprintf(sb, "%sFULL-MG%d @ level %d (N=%d): direct\n", indent, accIdx+1, level, n)
		return
	}
	p := f.Plan(level, accIdx)
	switch p.Choice {
	case FullDirect:
		fmt.Fprintf(sb, "%sFULL-MG%d @ level %d (N=%d): direct\n", indent, accIdx+1, level, n)
	case FullV:
		describeV(sb, v, level, accIdx, depth)
	case FullEstimate:
		switch p.Solve {
		case ChoiceSOR:
			fmt.Fprintf(sb, "%sFULL-MG%d @ level %d (N=%d): ESTIMATE%d, then SOR ×%d\n",
				indent, accIdx+1, level, n, p.EstAcc+1, p.Iters)
			describeFull(sb, f, v, level-1, p.EstAcc, depth+1)
		case ChoiceVCycle:
			fmt.Fprintf(sb, "%sFULL-MG%d @ level %d (N=%d): ESTIMATE%d, then standard V-cycle ×%d\n",
				indent, accIdx+1, level, n, p.EstAcc+1, p.Iters)
			describeFull(sb, f, v, level-1, p.EstAcc, depth+1)
		case ChoiceRecurse:
			fmt.Fprintf(sb, "%sFULL-MG%d @ level %d (N=%d): ESTIMATE%d, then RECURSE%d ×%d\n",
				indent, accIdx+1, level, n, p.EstAcc+1, p.SolveSub+1, p.Iters)
			describeFull(sb, f, v, level-1, p.EstAcc, depth+1)
			if p.Iters > 0 {
				describeV(sb, v, level-1, p.SolveSub, depth+1)
			}
		}
	}
}
