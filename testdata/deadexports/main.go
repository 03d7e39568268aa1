// Command deadexports is the module TestDeadExportsAnalysis checks.
package main

import (
	"fmt"

	"deadexports/internal/lib"
)

func main() {
	fmt.Println(lib.Used())
}
