package core

import (
	"encoding/json"
	"fmt"
	"os"

	"pbmg/internal/grid"
	"pbmg/internal/mg"
	"pbmg/internal/stencil"
)

// Tuned bundles the output of a tuning run with its provenance, mirroring
// the configuration files the PetaBricks autotuner writes after dynamic
// tuning so that subsequent runs can reuse the choices (§3.2.1).
//
// A Tuned bundle is immutable once tuning or Load completes: executors only
// read the tables, so one bundle may back any number of concurrent solves.
type Tuned struct {
	// Machine names the Coster the tables were tuned for.
	Machine string `json:"machine"`
	// Family names the operator family the tables were tuned for (empty in
	// configurations predating operator families, meaning "poisson").
	Family string `json:"family,omitempty"`
	// Eps is the operator family parameter (anisotropy ε or coefficient
	// contrast σ; zero/absent for Poisson).
	Eps float64 `json:"eps,omitempty"`
	// Distribution is the training distribution name.
	Distribution string `json:"distribution"`
	// Seed reproduces the training data.
	Seed int64 `json:"seed"`
	// MaxLevel is the finest tuned level.
	MaxLevel int `json:"maxLevel"`
	// V is the tuned MULTIGRID-V table.
	V *mg.VTable `json:"v"`
	// F is the tuned FULL-MULTIGRID table; every tune writes it beside V.
	F *mg.FTable `json:"f,omitempty"`
}

// Tune runs the complete dynamic program — the V and full-multigrid tables,
// level by level — and returns the bundle.
func (t *Tuner) Tune() (*Tuned, error) {
	vt := &mg.VTable{Acc: append([]float64(nil), t.cfg.Accuracies...)}
	ft := &mg.FTable{Acc: append([]float64(nil), t.cfg.Accuracies...)}
	for level := 2; level <= t.cfg.MaxLevel; level++ {
		t.tuneLevel(vt, ft, level)
	}
	b := t.bundle(vt, ft)
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: tuned bundle invalid: %w", err)
	}
	return b, nil
}

// bundle stamps tuned tables with the tuner's provenance.
func (t *Tuner) bundle(vt *mg.VTable, ft *mg.FTable) *Tuned {
	eps := t.cfg.Eps
	if !FamilyHasParam(t.cfg.Family) {
		eps = 0
	}
	return &Tuned{
		Machine:      t.cfg.Coster.Name(),
		Family:       t.cfg.Family.String(),
		Eps:          eps,
		Distribution: t.cfg.Distribution.String(),
		Seed:         t.cfg.Seed,
		MaxLevel:     t.cfg.MaxLevel,
		V:            vt,
		F:            ft,
	}
}

// FamilyValue parses the stored family name (empty means Poisson for
// configurations written before operator families existed).
func (t *Tuned) FamilyValue() (stencil.Family, error) {
	if t.Family == "" {
		return stencil.FamilyPoisson, nil
	}
	return stencil.ParseFamily(t.Family)
}

// OperatorValue returns the operator family the bundle was tuned for,
// discretized at the finest tuned size: the process's one operator for that
// key (stencil.NewOperator), so every load of one table — and every reload
// generation — runs on one coefficient hierarchy.
func (t *Tuned) OperatorValue() (*stencil.Operator, error) {
	f, err := t.FamilyValue()
	if err != nil {
		return nil, err
	}
	return stencil.NewOperator(f, t.Eps, grid.SizeOfLevel(t.MaxLevel))
}

// DistributionValue parses the stored distribution name back into a
// grid.Distribution (defaulting to unbiased for unknown names).
func (t *Tuned) DistributionValue() grid.Distribution {
	if d, ok := grid.ParseDistribution(t.Distribution); ok {
		return d
	}
	return grid.Unbiased
}

// Validate checks the operator family, both tables (each required: Solve
// runs the F table, SolveV the V table), and that the tables
// agree with the bundle and with each other: a Solver trusts MaxLevel when
// it admits a grid size and the V table's accuracies when it picks an
// index, so a bundle claiming more levels than a table has rows for, or
// whose F table indexes different targets, would pass every per-table check
// and panic in a table lookup on the first request for the largest size.
// It validates the family name and parameter without materializing the
// operator (for variable-coefficient bundles that would build the full
// coefficient field, which Load's caller does once anyway via
// OperatorValue).
func (t *Tuned) Validate() error {
	f, err := t.FamilyValue()
	if err != nil {
		return fmt.Errorf("core: tuned bundle operator invalid: %w", err)
	}
	if FamilyHasParam(f) && !(t.Eps > 0) {
		return fmt.Errorf("core: tuned bundle operator invalid: family %s needs a positive parameter, got %g", f, t.Eps)
	}
	if t.V == nil {
		return fmt.Errorf("core: tuned bundle has no V table")
	}
	if err := t.V.Validate(); err != nil {
		return err
	}
	if t.MaxLevel < 2 {
		return fmt.Errorf("core: tuned bundle maxLevel %d: need ≥ 2", t.MaxLevel)
	}
	if got := t.V.MaxLevel(); t.MaxLevel > got {
		return fmt.Errorf("core: tuned bundle maxLevel %d, but the V table has rows only up to level %d", t.MaxLevel, got)
	}
	if t.F == nil {
		return fmt.Errorf("core: tuned bundle has no F table")
	}
	if err := t.F.Validate(); err != nil {
		return err
	}
	if got := t.F.MaxLevel(); t.MaxLevel > got {
		return fmt.Errorf("core: tuned bundle maxLevel %d, but the F table has rows only up to level %d", t.MaxLevel, got)
	}
	if len(t.F.Acc) != len(t.V.Acc) {
		return fmt.Errorf("core: tuned bundle F table has %d accuracy targets, V table %d", len(t.F.Acc), len(t.V.Acc))
	}
	for i, a := range t.F.Acc {
		if a != t.V.Acc[i] {
			return fmt.Errorf("core: tuned bundle F table acc[%d] = %g, V table acc[%d] = %g", i, a, i, t.V.Acc[i])
		}
	}
	return nil
}

// Save writes the bundle as indented JSON.
func (t *Tuned) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("core: marshal tuned config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a bundle written by Save and validates it.
func Load(path string) (*Tuned, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read tuned config: %w", err)
	}
	var t Tuned
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("core: parse tuned config %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("core: tuned config %s invalid: %w", path, err)
	}
	return &t, nil
}
