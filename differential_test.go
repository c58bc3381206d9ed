package grb

import "testing"

// TestModesProduceIdenticalResults: §III requires deferred execution to be
// observationally equivalent to eager execution. Every generated program
// (progen_test.go) runs in both modes against one oracle.
func TestModesProduceIdenticalResults(t *testing.T) { matrixKit(t, kitInt, serial) }
