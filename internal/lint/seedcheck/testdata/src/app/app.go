package app

import (
	"math/rand"
	"time"
)

// Production code may seed from the clock: only tests must repeat.
func jitter() rand.Source { return rand.NewSource(time.Now().UnixNano()) }
