// Command closurex-cc is the ClosureX compiler driver: it compiles MinC
// source (a file or a registered benchmark) and applies an instrumentation
// pipeline, then dumps the result — IR text, the section table (the
// Figure 3 view) or the pass inventory (Table 3).
//
// Usage:
//
//	closurex-cc -list-passes
//	closurex-cc -target gpmf-parser -sections
//	closurex-cc -file prog.c -variant closurex -dump-ir
package main

import (
	"flag"
	"fmt"
	"os"

	"closurex/internal/core"
	"closurex/internal/experiments"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

func main() {
	var (
		targetName = flag.String("target", "", "registered benchmark to compile (see -list-targets)")
		file       = flag.String("file", "", "MinC source file to compile")
		variant    = flag.String("variant", "closurex", "pipeline: pristine | baseline | closurex | closurex+deferinit")
		dumpIR     = flag.Bool("dump-ir", false, "print the instrumented IR")
		sections   = flag.Bool("sections", false, "print the section table (Figure 3 view)")
		transform  = flag.Bool("transform", false, "print before/after GlobalPass section tables (Figure 3)")
		listPasses = flag.Bool("list-passes", false, "print the pass inventory (Table 3)")
		listTgts   = flag.Bool("list-targets", false, "print the benchmark inventory (Table 4)")
		optimize   = flag.Bool("O", false, "run the optimization pipeline (const fold, dead blocks) first")
	)
	flag.Parse()

	if *listPasses {
		fmt.Print(experiments.Table3())
		return
	}
	if *listTgts {
		fmt.Print(experiments.Table4())
		return
	}

	var src, name string
	switch {
	case *targetName != "":
		t := targets.Get(*targetName)
		if t == nil {
			fatalf("unknown target %q; try -list-targets", *targetName)
		}
		src, name = t.Source, t.Short+".c"
		if *transform {
			out, err := experiments.SectionTransformation(t.Name)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Print(out)
			return
		}
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatalf("%v", err)
		}
		src, name = string(data), *file
	default:
		flag.Usage()
		os.Exit(2)
	}

	v, err := core.ParseVariant(*variant)
	if err != nil {
		fatalf("%v", err)
	}

	pristine, err := core.Compile(name, src)
	if err != nil {
		fatalf("%v", err)
	}
	if *optimize {
		pm := passes.NewManager(vm.Builtins())
		pm.Add(passes.OptimizePipeline()...)
		if err := pm.Run(pristine); err != nil {
			fatalf("optimizing: %v", err)
		}
	}
	mod, err := core.Instrument(pristine, v)
	if err != nil {
		fatalf("%v", err)
	}
	instrs := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			instrs += len(b.Instrs)
		}
	}
	fmt.Printf("compiled %s: %d functions, %d globals, %d blocks, %d instructions, %d coverage probes, %d static edges\n",
		name, len(mod.Funcs), len(mod.Globals), mod.NumBlocks(), instrs,
		passes.CountProbes(mod), passes.TotalEdges(mod))
	if *sections {
		fmt.Print(vm.NewLayout(mod).String())
	}
	if *dumpIR {
		fmt.Print(ir.Print(mod))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "closurex-cc: "+format+"\n", args...)
	os.Exit(1)
}
