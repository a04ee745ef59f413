package lib

import "reflect"

type Thing struct{ n int }

func (t *Thing) Exported() int { return t.n } // live: the facade aliases Thing

func (t *Thing) unexportedOfAlias() {} // dead: only exported methods are roots

func (Thing) String() string { return "thing" } // live: String always counts

type runner interface{ Run() int }

// Drive calls through runner, so every Run() int of a live type is live.
func Drive(r runner) int { return r.Run() + platform() + pair{1, 2}.a }

type helper struct {
	used   int
	tag    int // live: a literal key names it
	unread int // dead: nothing names it
}

func NewHelper() runner { return helper{used: 1, tag: 2} }

func (h helper) Run() int { return h.used }

func (helper) deadMethod() {}

type pair struct{ a, b int } // b is live: an unkeyed literal sets it

const deadConst = 1

func deadFunc() {}

func onlyTested() int { return 1 } // dead: only lib_test.go calls it

func windowsOnly() int { return 2 } // live: only lib_win.go calls it

func ToolOnly() int { return 3 } // live: the tool module calls it

func hook() int { return hookHelper() } // kept once allowlisted

func hookHelper() int { return 5 } // kept with the allowlisted hook

// Reflected's fields are read by reflection, so they are not checked.
type Reflected struct{ Field int }

func Reflect() int { return reflect.ValueOf(Reflected{}).NumField() }

var initialised int

func init() { initialised = initOnly() }

func initOnly() int { return 4 }

type mer interface{ M() }

type assertOnly struct{}

func (assertOnly) M() {} // live: the assertion below needs it

var _ mer = assertOnly{}

type deadType struct{}

func (deadType) methodOfDead() {} // reported with its type
