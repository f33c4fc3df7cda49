// Command bvsat is a miniature QF_BV SMT solver speaking SMT-LIB v2 —
// the role Z3 plays in the reproduced paper's toolchain, exposed as a
// standalone tool over this repository's SAT/bit-blasting stack.
//
// Usage:
//
//	bvsat file.smt2
//	echo '(declare-const x (_ BitVec 8)) (assert (= x #x2a)) (check-sat) (get-model)' | bvsat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"selgen/internal/smt"
	"selgen/internal/smtlib"
)

func main() {
	timeout := flag.Duration("timeout", 0, "per-check timeout (0 = none)")
	conflicts := flag.Int64("conflicts", 0, "per-check conflict budget (0 = none)")
	flag.Parse()

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: bvsat [file.smt2]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvsat: %v\n", err)
		os.Exit(1)
	}

	script := smtlib.NewScript()
	script.Opts = smt.Options{MaxConflicts: *conflicts}
	if *timeout > 0 {
		script.Opts.Timeout = *timeout
	}
	if err := script.Run(string(src), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bvsat: %v\n", err)
		os.Exit(1)
	}
}
