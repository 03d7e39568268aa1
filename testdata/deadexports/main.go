// Command deadexports is the module TestDeadExportsAnalysis,
// TestDeadKnobsAnalysis and TestGoStatementsAnalysis check.
package main

import (
	"flag"
	"fmt"

	"deadexports/internal/lib"
)

func main() {
	cfg := lib.Config{Set: 2}
	flag.IntVar(&cfg.Flagged, "flagged", 0, "a flag-bound option")
	flag.Parse()
	fmt.Println(lib.Used(), cfg)
}
