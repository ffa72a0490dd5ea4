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

// BenchmarkInstrumentTargets times the pass pipeline, with the structural
// verifier after every pass, over every registered target; one op
// instruments all of them with the richest build configuration.
func BenchmarkInstrumentTargets(b *testing.B) {
	var pristine []*ir.Module
	for _, t := range targets.All() {
		m, err := Compile(t.Short+".c", t.Source)
		if err != nil {
			b.Fatalf("%s: %v", t.Name, err)
		}
		pristine = append(pristine, m)
	}
	cfg := BuildConfig{Variant: ClosureX, Sanitize: SanitizeElide, Interproc: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range pristine {
			out, err := InstrumentWith(m, cfg)
			if err != nil {
				b.Fatal(err)
			}
			compiledSink = out
		}
	}
}
