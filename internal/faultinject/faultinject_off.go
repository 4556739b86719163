//go:build !faultinject

// Package faultinject (default edition, faultinject tag absent): every
// injection point is an empty no-op behind Enabled = false, so the hooks
// compiled into the solver and serving layers are dead code the compiler
// eliminates. See faultinject.go (the tagged edition) for the real
// registry and the spec syntax.
package faultinject

import "errors"

// Enabled reports whether the binary was built with the faultinject tag.
const Enabled = false

// Clear is a no-op without the faultinject tag.
func Clear() {}

// Armed always reports nothing armed without the faultinject tag.
func Armed() []string { return nil }

// Point is a no-op without the faultinject tag.
func Point(name string) {}

// PointLevel never injects without the faultinject tag.
func PointLevel(name string, level int) bool { return false }

// PointErr never injects without the faultinject tag.
func PointErr(name string) error { return nil }

// ArmSpec rejects every spec without the faultinject tag, so a /-/fault
// request against a production build (which does not register the
// endpoint anyway) cannot silently pretend to arm.
func ArmSpec(spec string) error {
	return errors.New("faultinject: binary built without the faultinject tag")
}
