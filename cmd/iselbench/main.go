// Command iselbench reproduces Table 1 of the paper: it compiles the
// synthetic SPEC-CINT2000 workloads with the handwritten selector and
// with prototype selectors generated from the basic and full
// synthesized rule libraries, runs the selected code in the cycle-cost
// simulator (verifying all selectors compute what the IR computes),
// and prints the coverage and runtime-ratio table. It only selects:
// synthesize the libraries with `selgen -setup basic|full` first.
//
// Usage:
//
//	iselbench -basic b.json -full f.json
//	iselbench -basic b.json -full f.json -trace t.json  # isel.select spans
package main

import (
	"flag"
	"fmt"
	"os"

	"selgen/internal/driver"
	"selgen/internal/obs"
	"selgen/internal/pattern"
	"selgen/internal/target"
)

func load(path string) (*pattern.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Load(f)
}

func main() {
	var (
		tgtName   = flag.String("target", "x86", "machine backend for the Table 1 run: x86 or riscv")
		width     = flag.Int("width", 8, "word width")
		basicPath = flag.String("basic", "", "basic rule library JSON (required; selgen -setup basic writes it)")
		fullPath  = flag.String("full", "", "full rule library JSON (required; selgen -setup full writes it)")
		seed      = flag.Int64("seed", 99, "workload seed")
		trace     = flag.String("trace", "", "write a Chrome trace_event JSON file of the Table 1 run (isel.select spans)")
	)
	flag.Parse()

	if *basicPath == "" || *fullPath == "" {
		fmt.Fprintf(os.Stderr, "iselbench: -basic and -full are required; synthesize the libraries with selgen -setup basic|full\n")
		os.Exit(2)
	}
	if err := (driver.Options{Width: *width}).Check(); err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}
	tgt, err := target.ByName(*tgtName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(2)
	}

	tracer := obs.New()
	if *trace != "" {
		tracer.EnableTrace()
	}
	basicLib, err := load(*basicPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: basic library: %v\n", err)
		os.Exit(1)
	}
	fullLib, err := load(*fullPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: full library: %v\n", err)
		os.Exit(1)
	}

	t, err := driver.RunTable1(tgt, *width, *seed, basicLib, fullLib, tracer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
		os.Exit(1)
	}
	t.Write(os.Stdout)

	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteChromeTrace(tf); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := tf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "iselbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iselbench: trace with %d events written to %s\n", tracer.NumEvents(), *trace)
	}
}
