package stencil

// Every entry point is generic, so the compiler builds the row kernels and
// their drivers only where an entry point is instantiated. Instantiating
// each one at both storage precisions here makes this package, built alone,
// compile every kernel it ships — which is what the compiler diagnostics the
// escape and bounds-check gates read (`go run ./cmd/mglint ./...`)
// are reported for.
var _ = []any{
	OpSORSweepRB[float64], OpSORSweepRB[float32],
	OpResidual[float64], OpResidual[float32],
	OpResidualNorm[float64], OpResidualNorm[float32],
	OpDownstroke[float64], OpDownstroke[float32],
	OpSmoothResidualRestrict[float64], OpSmoothResidualRestrict[float32],
	OpResidualRestrict[float64], OpResidualRestrict[float32],
	OpUpstroke[float64], OpUpstroke[float32],
	OpInterpolateCorrectSmooth[float64], OpInterpolateCorrectSmooth[float32],
	OpFinishSmooth[float64], OpFinishSmooth[float32],
}
