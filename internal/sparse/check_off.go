//go:build !grbcheck

package sparse

// DebugChecks reports whether the grbcheck validators are compiled in.
const DebugChecks = false

// DebugCheckCSR is a no-op without -tags grbcheck; see check.go.
func DebugCheckCSR[T any](m *CSR[T], origin string) {}

// DebugCheckVec is a no-op without -tags grbcheck; see check.go.
func DebugCheckVec[T any](v *Vec[T], origin string) {}

// Superseded is a no-op without -tags grbcheck; see check.go.
func Superseded[T any](old, res *Vec[T]) {}
