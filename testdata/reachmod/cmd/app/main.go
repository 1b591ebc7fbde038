// Command app is the module's program.
package main

import (
	"fmt"

	"example.com/reachmod/internal/lib"
)

func main() {
	var c lib.Counter
	tick := c.Tick
	tick()
	fmt.Println(lib.Live(), lib.Stale(), lib.NewSquare(2).Area(), lib.Box[int]{}.Get())
}
