// Command deadexports is the module TestDeadExportsAnalysis and
// TestDeadKnobsAnalysis check.
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
