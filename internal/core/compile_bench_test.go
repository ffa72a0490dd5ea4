package core

import (
	"testing"

	"closurex/internal/ir"
	"closurex/internal/targets"
)

var compiledSink *ir.Module

// BenchmarkCompileTargets times the front end (lex, parse, analyze, lower,
// resolve) over every registered target; one op compiles all of them.
func BenchmarkCompileTargets(b *testing.B) {
	all := targets.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range all {
			m, err := Compile(t.Short+".c", t.Source)
			if err != nil {
				b.Fatalf("%s: %v", t.Name, err)
			}
			compiledSink = m
		}
	}
}
