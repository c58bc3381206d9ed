package seedcheck_test

import (
	"testing"

	"github.com/grblas/grb/internal/lint/linttest"
	"github.com/grblas/grb/internal/lint/seedcheck"
)

func TestSeedCheck(t *testing.T) {
	linttest.Run(t, "testdata", seedcheck.Analyzer, "app")
}
