package main

import (
	"testing"

	"repro/internal/nemoeval"
)

// TestVetReportTable2 pins the analyzer's findings over every program the
// Table 2 matrix generates, as `nemoeval -table 2 -vet` prints them. The
// corpus comes from the simulated LLM, not from the analyzer's own
// testdata, so a change to any rule's verdict on real generated code shows
// here even when the golden corpus still passes.
func TestVetReportTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 2 matrix")
	}
	runner := nemoeval.NewRunner()
	if _, err := runner.Table2(); err != nil {
		t.Fatal(err)
	}
	const want = `static analysis: 984 generated programs vetted
  NQ001 (error): 167
  NQ100 (error): 94
  NQ102 (warning): 380
  NQ300 (error): 110
  NQ402 (warning): 108
`
	if got := vetReport(runner.Log.Records()); got != want {
		t.Errorf("vetReport:\n%s\nwant:\n%s", got, want)
	}
}
