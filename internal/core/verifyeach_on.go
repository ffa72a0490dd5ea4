//go:build verifyeach

package core

// verifyEachDefault is true under the verifyeach build tag: every pipeline
// the suite builds re-runs the deep check (passes.Verify) after every pass, so
// a pass that corrupts the module is attributed by name the moment it
// lands, anywhere in the test suite.
const verifyEachDefault = true
