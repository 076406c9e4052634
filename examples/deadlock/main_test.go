package main

import (
	"testing"

	"multicastnet/internal/golden"
)

// TestMainOutput pins the example's whole standard output, which is
// deterministic at every GOMAXPROCS.
func TestMainOutput(t *testing.T) {
	golden.Compare(t, "testdata/stdout.txt", golden.Stdout(t, main))
}
