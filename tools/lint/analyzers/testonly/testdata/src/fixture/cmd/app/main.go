// Command app is the fixture's non-test caller of internal/lib.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Used())
}
