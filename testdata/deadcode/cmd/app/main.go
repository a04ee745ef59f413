package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Drive(lib.NewHelper()), fixture.New(), lib.Reflect())
}
