// The benchmark is a module of its own so that its build file travels with
// it; the module path sits under the library's so that the kernel depth of
// the traced run may import internal/sparse.
module github.com/grblas/grb/benchmark

go 1.22

require github.com/grblas/grb v0.0.0

replace github.com/grblas/grb => ../
