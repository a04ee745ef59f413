package main

import (
	"fmt"
	"reflect"
	"strings"

	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// Feature gates are applied by field name. A later change that folds a gate
// into the default behaviour deletes the field and may not edit this
// benchmark; the profile then still means "that behaviour on", the missing
// name is reported, and the benchmark keeps compiling.

// setting is one gate of a profile: a dotted field path below
// cluster.Config and the value to store there.
type setting struct {
	path  string
	value any
}

// paperProfile is the protocol as the paper evaluates it: every gate at its
// default.
var paperProfile []setting

// smallmixProfile is the paper profile plus the submission-queue path with
// coalescing of 64 B writes, so that loop S exercises MultiData frames.
var smallmixProfile = []setting{
	{"Core.UseSQ", true},
	{"Core.CoalesceLimit", 64},
}

// productionProfile turns on what a large endpoint runs with.
var productionProfile = []setting{
	{"Core.SchedQueue", true},
	{"Core.TimerWheelTick", 50 * sim.Microsecond},
	{"Core.UseSQ", true},
	{"Core.RxBurst", 16},
	{"Core.Reconnect", true},
	{"Core.RTOMax", 64 * sim.Millisecond},
	{"Core.CongestionControl.Enable", true},
	{"Core.CongestionControl.InitWindow", 4},
	{"EcnThreshold", 40},
	{"Obs.Recorder", true},
}

// applyProfile stores every setting of the profile in cfg and returns the
// paths that no longer exist.
func applyProfile(cfg *cluster.Config, profile []setting) (missing []string) {
	for _, s := range profile {
		if err := setField(cfg, s.path, s.value); err != nil {
			missing = append(missing, s.path)
		}
	}
	return missing
}

// setField assigns value to the field at the dotted path below root, which
// must be a pointer to a struct.
func setField(root any, path string, value any) error {
	f := reflect.ValueOf(root).Elem()
	for _, name := range strings.Split(path, ".") {
		if f.Kind() != reflect.Struct {
			return fmt.Errorf("%s: %s is not a struct", path, f.Type())
		}
		f = f.FieldByName(name)
		if !f.IsValid() {
			return fmt.Errorf("%s: no field %s", path, name)
		}
	}
	v := reflect.ValueOf(value)
	if !v.Type().ConvertibleTo(f.Type()) {
		return fmt.Errorf("%s: cannot store %s in %s", path, v.Type(), f.Type())
	}
	f.Set(v.Convert(f.Type()))
	return nil
}
