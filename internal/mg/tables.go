package mg

import (
	"fmt"
	"math"
)

// Choice is an algorithmic choice available to MULTIGRID-Vᵢ (§2.3): solve
// directly, iterate SOR with ω_opt, or iterate the recursive multigrid step.
type Choice uint8

const (
	// ChoiceDirect solves with band Cholesky.
	ChoiceDirect Choice = iota
	// ChoiceSOR iterates red-black SOR with the size-optimal weight.
	ChoiceSOR
	// ChoiceRecurse iterates RECURSE_j (one V-shaped recursive step whose
	// coarse call is the tuned MULTIGRID-V_j one level down).
	ChoiceRecurse
	// ChoiceVCycle iterates the standard reference V-cycle — the
	// single-algorithm seed the PetaBricks population always contains
	// (§3.2.2), kept as an explicit candidate so the dynamic program can
	// never do worse than MULTIGRID-V-SIMPLE on its training data.
	ChoiceVCycle
)

// String returns the choice name.
func (c Choice) String() string {
	switch c {
	case ChoiceDirect:
		return "direct"
	case ChoiceSOR:
		return "sor"
	case ChoiceRecurse:
		return "recurse"
	case ChoiceVCycle:
		return "vcycle"
	default:
		return fmt.Sprintf("Choice(%d)", uint8(c))
	}
}

// Precision is the storage-precision directive a saved plan may carry
// (`"prec"`). The tuner no longer writes one and the executor ignores it:
// every cell runs in float64, so a table saved with f32 or mixed cells
// loads and solves in float64. Kept for `bench/`; goes with ROADMAP item
// 0's benchmark PR.
type Precision string

const (
	// PrecF64 (the zero value) is float64, the only storage precision.
	PrecF64 Precision = ""
	// PrecF32 is the retired f32 storage directive. Kept for `bench/`; goes
	// with ROADMAP item 0's benchmark PR.
	PrecF32 Precision = "f32"
	// PrecMixed is the retired mixed-refinement directive. Kept for
	// `bench/`; goes with ROADMAP item 0's benchmark PR.
	PrecMixed Precision = "mixed"
)

// Valid reports whether p is a known precision directive ("f64" is accepted
// as an explicit spelling of the default).
func (p Precision) Valid() bool {
	switch p {
	case PrecF64, "f64", PrecF32, PrecMixed:
		return true
	}
	return false
}

// Plan is the tuned decision of MULTIGRID-Vᵢ at one (level, accuracy) cell:
// which choice to make, how many iterations of it to run, and — for the
// recursive choice — which accuracy index j the sub-call RECURSE_j uses.
type Plan struct {
	Choice Choice `json:"choice"`
	// Iters is the number of SOR sweeps or RECURSE iterations (≥ 1 for
	// those choices; ignored for ChoiceDirect).
	Iters int `json:"iters,omitempty"`
	// Sub is the accuracy index j of the RECURSE_j sub-algorithm
	// (ignored unless Choice is ChoiceRecurse).
	Sub int `json:"sub,omitempty"`
	// Precision is a saved table's storage directive, validated on load
	// and ignored by the executor (see Precision). Kept for `bench/`; goes
	// with ROADMAP item 0's benchmark PR.
	Precision Precision `json:"prec,omitempty"`
}

// String names the cell as the tuner's progress lines do: "direct",
// "sor×I", "recJ×I" (RECURSE_J, accuracy index J counted from 1) or
// "vchain×I".
func (p Plan) String() string {
	switch p.Choice {
	case ChoiceDirect:
		return "direct"
	case ChoiceSOR:
		return fmt.Sprintf("sor×%d", p.Iters)
	case ChoiceRecurse:
		return fmt.Sprintf("rec%d×%d", p.Sub+1, p.Iters)
	case ChoiceVCycle:
		return fmt.Sprintf("vchain×%d", p.Iters)
	}
	return p.Choice.String()
}

// VTable is the complete tuned MULTIGRID-V algorithm family: for every
// level k (grid size 2^k+1) and every discrete accuracy target Acc[i], the
// plan chosen by the autotuner. Level 1 (N=3) is always a direct solve and
// is not stored.
type VTable struct {
	// Acc lists the discrete accuracy targets p_i in ascending order.
	Acc []float64 `json:"acc"`
	// Plans[k][i] is the plan for level k+2 (Plans[0] is level 2) and
	// accuracy index i.
	Plans [][]Plan `json:"plans"`
}

// MaxLevel returns the largest tuned level.
func (t *VTable) MaxLevel() int { return len(t.Plans) + 1 }

// Plan returns the tuned plan for the given level and accuracy index.
// Level 1 returns the direct base case.
func (t *VTable) Plan(level, accIdx int) Plan {
	if level <= 1 {
		return Plan{Choice: ChoiceDirect}
	}
	if level > t.MaxLevel() {
		panic(fmt.Sprintf("mg: level %d exceeds tuned max %d", level, t.MaxLevel()))
	}
	return t.Plans[level-2][accIdx]
}

// Validate checks structural invariants: ascending positive accuracies,
// rectangular plan rows, legal choices, positive iteration counts, and
// sub-accuracy indexes in range.
func (t *VTable) Validate() error { return validateTable("VTable", t.Acc, t.Plans) }

// validateTable checks what both tables share — an ascending finite ladder
// of positive accuracies and one plan per accuracy in every row — and each
// plan's own invariants.
func validateTable[P interface{ validate(numAcc int) error }](name string, acc []float64, plans [][]P) error {
	if len(acc) == 0 {
		return fmt.Errorf("mg: %s has no accuracy targets", name)
	}
	prev := 0.0
	for i, a := range acc {
		if a <= prev || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("mg: accuracy targets must be ascending and finite; Acc[%d]=%v", i, a)
		}
		prev = a
	}
	for k, row := range plans {
		if len(row) != len(acc) {
			return fmt.Errorf("mg: level %d has %d plans, want %d", k+2, len(row), len(acc))
		}
		for i, p := range row {
			if err := p.validate(len(acc)); err != nil {
				return fmt.Errorf("mg: level %d acc %d: %w", k+2, i, err)
			}
		}
	}
	return nil
}

func (p Plan) validate(numAcc int) error {
	if !p.Precision.Valid() {
		return fmt.Errorf("invalid precision %q", string(p.Precision))
	}
	switch p.Choice {
	case ChoiceDirect:
		return nil
	case ChoiceSOR:
		if p.Iters < 1 {
			return fmt.Errorf("sor plan needs iters ≥ 1, got %d", p.Iters)
		}
		return nil
	case ChoiceRecurse:
		if p.Iters < 1 {
			return fmt.Errorf("recurse plan needs iters ≥ 1, got %d", p.Iters)
		}
		if p.Sub < 0 || p.Sub >= numAcc {
			return fmt.Errorf("recurse sub-accuracy %d out of range [0,%d)", p.Sub, numAcc)
		}
		return nil
	case ChoiceVCycle:
		if p.Iters < 1 {
			return fmt.Errorf("vcycle plan needs iters ≥ 1, got %d", p.Iters)
		}
		return nil
	default:
		return fmt.Errorf("invalid choice %d", p.Choice)
	}
}

// FullChoice is the top-level choice of FULL-MULTIGRIDᵢ (§2.4): a direct
// solve, or an estimation phase followed by an iterative solve phase.
type FullChoice uint8

const (
	// FullDirect solves directly.
	FullDirect FullChoice = iota
	// FullEstimate runs ESTIMATE_j then iterates a solve-phase choice.
	FullEstimate
)

// String returns the choice name.
func (c FullChoice) String() string {
	switch c {
	case FullDirect:
		return "direct"
	case FullEstimate:
		return "estimate"
	default:
		return fmt.Sprintf("FullChoice(%d)", uint8(c))
	}
}

// FullPlan is the tuned decision of FULL-MULTIGRIDᵢ at one (level,
// accuracy) cell. When Choice is FullEstimate, EstAcc selects the accuracy
// index j of the recursive FULL-MULTIGRID_j estimate, and the solve phase
// runs Iters iterations of either SOR (ChoiceSOR) or RECURSE_SolveSub
// (ChoiceRecurse), exactly the two solve-phase options of §2.4.
type FullPlan struct {
	Choice FullChoice `json:"choice"`
	// EstAcc is the accuracy index j of the ESTIMATE_j call.
	EstAcc int `json:"estAcc,omitempty"`
	// Solve selects the solve phase: ChoiceSOR or ChoiceRecurse.
	Solve Choice `json:"solve,omitempty"`
	// SolveSub is the accuracy index k of RECURSE_k when Solve is recurse.
	SolveSub int `json:"solveSub,omitempty"`
	// Iters is the number of solve-phase iterations (≥ 0; zero means the
	// estimate alone already met the target).
	Iters int `json:"iters,omitempty"`
}

// String names the cell as the tuner's progress lines do: "direct", or
// "estJ+" (ESTIMATE_J, counted from 1) followed by the solve phase as
// Plan.String names it.
func (p FullPlan) String() string {
	switch {
	case p.Choice == FullDirect:
		return "direct"
	case p.Solve == ChoiceSOR:
		return fmt.Sprintf("est%d+sor×%d", p.EstAcc+1, p.Iters)
	case p.Solve == ChoiceVCycle:
		return fmt.Sprintf("est%d+vchain×%d", p.EstAcc+1, p.Iters)
	}
	return fmt.Sprintf("est%d+rec%d×%d", p.EstAcc+1, p.SolveSub+1, p.Iters)
}

// FTable is the tuned FULL-MULTIGRID family. Its recursive solve phases
// reference plans in the companion VTable, mirroring how the paper maintains
// both optimized function sets (§2.4).
type FTable struct {
	Acc   []float64    `json:"acc"`
	Plans [][]FullPlan `json:"plans"`
}

// MaxLevel returns the largest tuned level.
func (t *FTable) MaxLevel() int { return len(t.Plans) + 1 }

// Plan returns the tuned full-multigrid plan for level and accuracy index.
// Level 1 returns the direct base case.
func (t *FTable) Plan(level, accIdx int) FullPlan {
	if level <= 1 {
		return FullPlan{Choice: FullDirect}
	}
	if level > t.MaxLevel() {
		panic(fmt.Sprintf("mg: level %d exceeds tuned max %d", level, t.MaxLevel()))
	}
	return t.Plans[level-2][accIdx]
}

// Validate checks structural invariants of the table.
func (t *FTable) Validate() error { return validateTable("FTable", t.Acc, t.Plans) }

func (p FullPlan) validate(numAcc int) error {
	switch p.Choice {
	case FullDirect:
		return nil
	case FullEstimate:
		if p.EstAcc < 0 || p.EstAcc >= numAcc {
			return fmt.Errorf("estimate accuracy %d out of range [0,%d)", p.EstAcc, numAcc)
		}
		if p.Iters < 0 {
			return fmt.Errorf("solve iters %d negative", p.Iters)
		}
		switch p.Solve {
		case ChoiceSOR, ChoiceVCycle:
			return nil
		case ChoiceRecurse:
			if p.SolveSub < 0 || p.SolveSub >= numAcc {
				return fmt.Errorf("solve sub-accuracy %d out of range [0,%d)", p.SolveSub, numAcc)
			}
			return nil
		default:
			return fmt.Errorf("invalid solve-phase choice %v", p.Solve)
		}
	default:
		return fmt.Errorf("invalid full choice %d", p.Choice)
	}
}
