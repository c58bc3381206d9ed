// Package app is the seedcheck corpus: a time value that reaches a math/rand
// seed in a test file is flagged — directly, through what the seed
// expression reads, or through the local a seed parser returns — unless
// suppressed; a fixed seed is not, nor a time value a function literal
// returns, nor a method of the universe such as error.Error.
package app

import (
	"math/rand"
	"os"
	"time"
)

func direct() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `a time value seeds math/rand`
}

func throughALocal() rand.Source {
	seed := time.Now().Unix() // want `a time value seeds math/rand`
	return rand.NewSource(seed)
}

func offset() rand.Source {
	seed := time.Now().UnixNano() // want `a time value seeds math/rand`
	return rand.NewSource(seed + 1)
}

// parseSeed is a seed parser: a fixed default, or the clock when asked.
func parseSeed() int64 {
	seed := int64(20210521)
	if os.Getenv("SEED") == "clock" {
		seed = time.Now().UnixNano() //grblint:ignore seedcheck -- corpus: the deliberate clock arm
	}
	return seed
}

func fixed() *rand.Rand {
	rand.Seed(7)
	return rand.New(rand.NewSource(parseSeed() + 1))
}

// twoClocks reaches the parser's suppressed clock arm and a clock of its own.
func twoClocks() rand.Source {
	seed := parseSeed()
	jitter := time.Now().Unix() // want `a time value seeds math/rand`
	return rand.NewSource(seed + jitter)
}

// literal returns a constant; only the function literal reads the clock.
func literal() int64 {
	stamp := func() int64 { return time.Now().Unix() }
	_ = stamp
	return 5
}

func notTheLiteral(err error) rand.Source {
	rand.Seed(literal())
	return rand.NewSource(int64(len(err.Error())))
}
