// Command nqbench is the repository benchmark: netqueryd under three
// traffic mixes and the NeMoEval Table 2 matrix, each workload in a fresh
// child process, every output checked. See bench/README.md.
package main

import (
	"os"

	"repro/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
