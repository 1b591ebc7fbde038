// Command benchmark stands in for a module's benchmark.
package main

import (
	"fmt"

	"example.com/reachmod/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
