//go:build !verifyeach

package core

// verifyEachDefault is false in ordinary builds: pipelines run the
// structural leg of the verifier (analysis.VerifyStructure) between passes,
// and the deep check (passes.Verify) runs standalone (closurex-lint,
// tests). Build with -tags verifyeach to re-run the deep check after every
// pass of every build — `make lint` and `make fuzz` do.
const verifyEachDefault = false
