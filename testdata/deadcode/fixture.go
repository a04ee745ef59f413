// Package fixture is the facade of a planted module: TestNoDeadCodeFixture
// checks that the reachability check gives each of its cases the right
// verdict.
package fixture

import "fixture/internal/lib"

// Thing is aliased, so its exported methods are roots.
type Thing = lib.Thing

func New() *Thing { return &lib.Thing{} }
