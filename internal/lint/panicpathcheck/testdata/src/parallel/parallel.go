// Package parallel is the panicpathcheck corpus stub of the worker pool.
package parallel

// Run partitions work across workers.
func Run(parts []int, threads int, body func(part, lo, hi int)) {}

// For splits [0,n) across workers.
func For(n, threads int, body func(lo, hi int)) {}
