package compile_test

import (
	"testing"

	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// buildBench compiles one target for benchmarking (no testing.T).
func buildBench(b *testing.B, name string) *ir.Module {
	b.Helper()
	tg := targets.Get(name)
	if tg == nil {
		b.Fatalf("unknown target %q", name)
	}
	m, err := buildModule(tg, false)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchBackend(b *testing.B, target, backend string) {
	m := buildBench(b, target)
	tg := targets.Get(target)
	cov := vm.NewCovMap()
	v, err := vm.New(m, vm.Options{CovMap: cov, DeterministicRand: true, RandSeed: 1, Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	in := tg.Seeds()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.SetInput(in)
		v.Call(passes.TargetMain)
	}
}

func BenchmarkGpmfInterp(b *testing.B)     { benchBackend(b, "gpmf-parser", vm.InterpBackend) }
func BenchmarkGpmfCompiled(b *testing.B)   { benchBackend(b, "gpmf-parser", "compiled") }
func BenchmarkZlibInterp(b *testing.B)     { benchBackend(b, "zlib", vm.InterpBackend) }
func BenchmarkZlibCompiled(b *testing.B)   { benchBackend(b, "zlib", "compiled") }
func BenchmarkMd4cInterp(b *testing.B)     { benchBackend(b, "md4c", vm.InterpBackend) }
func BenchmarkMd4cCompiled(b *testing.B)   { benchBackend(b, "md4c", "compiled") }
func BenchmarkBsdtarInterp(b *testing.B)   { benchBackend(b, "bsdtar", vm.InterpBackend) }
func BenchmarkBsdtarCompiled(b *testing.B) { benchBackend(b, "bsdtar", "compiled") }
