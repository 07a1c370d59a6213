package nemoeval

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/llm"
	"repro/internal/nql"
	"repro/internal/nqlbind"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/traffic"
)

func trafficEval() *Evaluator {
	return NewEvaluator(TrafficDataset(DefaultTrafficConfig))
}

func TestEvaluateCodeWrongValueClassified(t *testing.T) {
	ev := trafficEval()
	q, _ := queries.ByID("ta-e2")
	rec := ev.EvaluateCode(q, prompt.BackendNetworkX, "return 42")
	if rec.Pass {
		t.Fatal("wrong answer passed")
	}
	if rec.Stage != StageCompare || rec.ErrClass != LabelWrongCalc {
		t.Fatalf("rec = %+v", rec)
	}
	if !strings.Contains(rec.Err, "result mismatch") {
		t.Fatalf("err = %s", rec.Err)
	}
}

func TestEvaluateCodeStateDiffClassified(t *testing.T) {
	ev := trafficEval()
	q, _ := queries.ByID("ta-e1") // mutation query
	// Program returns nil (matching golden) but mutates nothing.
	rec := ev.EvaluateCode(q, prompt.BackendNetworkX, "return nil")
	if rec.Pass {
		t.Fatal("no-op mutation passed")
	}
	if rec.ErrClass != LabelGraphDiff {
		t.Fatalf("class = %s (%s)", rec.ErrClass, rec.Err)
	}
}

func TestEvaluateCodeExecErrorClasses(t *testing.T) {
	ev := trafficEval()
	q, _ := queries.ByID("ta-e2")
	cases := []struct {
		code  string
		label string
	}{
		{"return (", LabelSyntax},
		{`return graph.node(graph.nodes()[0])["bandwidth"]`, LabelAttr},
		{`return read_csv("x.csv")`, LabelName},
		{"return graph.degree()", LabelArgument},
		{`return "x" + 5`, LabelOperation},
	}
	for _, c := range cases {
		rec := ev.EvaluateCode(q, prompt.BackendNetworkX, c.code)
		if rec.Pass || rec.ErrClass != c.label {
			t.Errorf("code %q class = %s, want %s", c.code, rec.ErrClass, c.label)
		}
	}
}

func TestEvaluateModelRecordsCost(t *testing.T) {
	ev := trafficEval()
	model, _ := llm.NewSim("gpt-4")
	q, _ := queries.ByID("ta-e2")
	rec := ev.EvaluateModel(model, q, prompt.BackendNetworkX, 1, 0)
	if !rec.Pass {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.CostUSD <= 0 || rec.PromptTokens <= 0 || rec.CompletionTokens <= 0 {
		t.Fatalf("cost accounting: %+v", rec)
	}
	if rec.Model != "gpt-4" || rec.Trial != 1 {
		t.Fatalf("metadata: %+v", rec)
	}
}

func TestStrawmanPassAndFail(t *testing.T) {
	ev := trafficEval()
	model, _ := llm.NewSim("gpt-4")
	// Calibrated pass (easy position 0).
	q, _ := queries.ByID("ta-e1")
	rec := ev.EvaluateStrawman(model, q)
	if !rec.Pass {
		t.Fatalf("strawman pass cell failed: %+v", rec)
	}
	// Calibrated fail (easy position 5).
	q2, _ := queries.ByID("ta-e6")
	rec2 := ev.EvaluateStrawman(model, q2)
	if rec2.Pass {
		t.Fatal("strawman fail cell passed")
	}
	if rec2.ErrClass != LabelWrongCalc {
		t.Fatalf("class = %s", rec2.ErrClass)
	}
}

func TestStrawmanTokenLimit(t *testing.T) {
	// gpt-3's window cannot hold an 80-node JSON payload.
	ev := trafficEval()
	model, _ := llm.NewSim("gpt-3")
	q, _ := queries.ByID("ta-e1")
	rec := ev.EvaluateStrawman(model, q)
	if rec.Pass || rec.ErrClass != LabelTokenLimit {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Stage != StageGenerate {
		t.Fatalf("stage = %s", rec.Stage)
	}
}

func TestOracleAnswerForms(t *testing.T) {
	ev := trafficEval()
	// Value-returning query: oracle is the Repr.
	q, _ := queries.ByID("ta-e2")
	ans, err := ev.OracleAnswer(q)
	if err != nil || ans != "80" {
		t.Fatalf("ans = %q err=%v", ans, err)
	}
	// Mutation query: oracle is the graph fingerprint.
	q2, _ := queries.ByID("ta-e1")
	ans2, err := ev.OracleAnswer(q2)
	if err != nil || !strings.HasPrefix(ans2, "digraph") {
		t.Fatalf("ans = %.40q err=%v", ans2, err)
	}
}

func TestResultEqualHostObjects(t *testing.T) {
	fa := dataframe.New("x")
	fa.AppendRow(1)
	fb := dataframe.New("x")
	fb.AppendRow(1)
	if !ResultEqual(nqlbind.NewFrameObject(fa), nqlbind.NewFrameObject(fb)) {
		t.Fatal("equal frames not equal")
	}
	fb.AppendRow(2)
	if ResultEqual(nqlbind.NewFrameObject(fa), nqlbind.NewFrameObject(fb)) {
		t.Fatal("different frames equal")
	}
	ga := graph.New()
	ga.AddNode("a", nil)
	gb := graph.New()
	gb.AddNode("a", nil)
	if !ResultEqual(nqlbind.NewGraphObject(ga), nqlbind.NewGraphObject(gb)) {
		t.Fatal("equal graphs not equal")
	}
	// Nested inside containers.
	m1 := nql.NewMap()
	_ = m1.Set("f", nqlbind.NewFrameObject(fa))
	m2 := nql.NewMap()
	_ = m2.Set("f", nqlbind.NewFrameObject(fa.Clone()))
	if !ResultEqual(m1, m2) {
		t.Fatal("maps of frames not equal")
	}
	// Mixed kinds never equal.
	if ResultEqual(nqlbind.NewFrameObject(fa), int64(1)) || ResultEqual(int64(1), nqlbind.NewFrameObject(fa)) {
		t.Fatal("frame vs scalar equal")
	}
	if !ResultEqual(nql.NewList(int64(1)), nql.NewList(float64(1))) {
		t.Fatal("numeric list equality")
	}
}

func TestStateEqualPerBackend(t *testing.T) {
	build := TrafficDataset(traffic.Config{Nodes: 10, Edges: 10, Seed: 3})
	a, b := build(), build()
	for _, backend := range prompt.Backends {
		if !StateEqual(backend, a, b) {
			t.Errorf("fresh instances differ for %s", backend)
		}
	}
	b.G().AddNode("zz", nil)
	if StateEqual(prompt.BackendNetworkX, a, b) {
		t.Error("graph change missed")
	}
	bNodes, _ := b.Frames()
	bNodes.AppendRow("zz", "1.2.3.4")
	if StateEqual(prompt.BackendPandas, a, b) {
		t.Error("frame change missed")
	}
	if _, err := b.Database().Exec("DELETE FROM edges WHERE bytes > 0"); err != nil {
		t.Fatal(err)
	}
	if StateEqual(prompt.BackendSQL, a, b) {
		t.Error("db change missed")
	}

	// One-cell writes on a clone: everything the write left shared with
	// its sibling compares by identity, so only the written column or map
	// is walked, and the write must still show.
	writes := []struct {
		name     string
		backends []string                          // the backends whose state the write changes
		write    func(inst *Instance, v any) error // sets the ip of node row 0
	}{
		{"graph attribute", []string{prompt.BackendNetworkX}, func(inst *Instance, v any) error {
			return inst.G().SetNodeAttr(inst.G().Nodes()[0], "ip", v)
		}},
		{"frame cell", []string{prompt.BackendPandas}, func(inst *Instance, v any) error {
			nodes, _ := inst.Frames()
			return nodes.SetCell(0, "ip", v)
		}},
		{"table row", []string{prompt.BackendSQL}, func(inst *Instance, v any) error {
			_, err := inst.Database().Exec(fmt.Sprintf("UPDATE nodes SET ip = '%v' WHERE id = '%s'", v, inst.G().Nodes()[0]))
			return err
		}},
	}
	for _, w := range writes {
		a, b := build(), build()
		ip := a.G().NodeAttrsView(a.G().Nodes()[0])["ip"]
		if nodes, _ := a.Frames(); nodes.Row(0)["ip"] != ip {
			t.Fatalf("node row 0 has ip %v, the graph's first node %v", nodes.Row(0)["ip"], ip)
		}
		if err := w.write(b, "10.9.9.9"); err != nil {
			t.Fatal(err)
		}
		changed := map[string]bool{prompt.BackendFederated: true}
		for _, backend := range w.backends {
			changed[backend] = true
		}
		for _, backend := range prompt.AllBackends {
			if got := StateEqual(backend, a, b); got == changed[backend] {
				t.Errorf("%s write: StateEqual(%s) = %v", w.name, backend, got)
			}
		}
		// Writing the old value back leaves an equal state that no longer
		// shares the written storage.
		if err := w.write(b, ip); err != nil {
			t.Fatal(err)
		}
		for _, backend := range prompt.AllBackends {
			if !StateEqual(backend, a, b) {
				t.Errorf("%s write restored: StateEqual(%s) = false", w.name, backend)
			}
		}
	}
}

// TestStateEqualOfUnwrittenClonesAllocatesNothing pins the common case of
// every trial: comparing two unwritten instances walks nothing and
// allocates nothing, on every backend.
func TestStateEqualOfUnwrittenClonesAllocatesNothing(t *testing.T) {
	for name, build := range map[string]InstanceBuilder{
		"traffic": TrafficDataset(traffic.Config{Nodes: 200, Edges: 800, Seed: 3}),
		"malt":    MALTDataset(),
	} {
		a, b := build(), build()
		for _, backend := range prompt.AllBackends {
			const want = 0.0
			allocs := testing.AllocsPerRun(10, func() {
				if !StateEqual(backend, a, b) {
					t.Fatalf("%s: unwritten instances differ for %s", name, backend)
				}
			})
			if allocs > want {
				t.Errorf("%s: StateEqual(%s) made %v allocations per run, want at most %v", name, backend, allocs, want)
			}
		}
	}
}

func TestLoggerRoundTrip(t *testing.T) {
	log := NewLogger()
	log.Add(&Record{Model: "gpt-4", QueryID: "q1", Pass: true})
	log.Add(&Record{Model: "bard", QueryID: "q2", Pass: false, ErrClass: LabelSyntax})
	if log.Len() != 2 {
		t.Fatalf("len = %d", log.Len())
	}
	if len(log.Failures()) != 1 {
		t.Fatalf("failures = %d", len(log.Failures()))
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], LabelSyntax) {
		t.Fatalf("jsonl = %q", buf.String())
	}
	if !strings.Contains(log.Summary(), "2 records") {
		t.Fatalf("summary = %q", log.Summary())
	}
}

func TestLabelForClassMapping(t *testing.T) {
	cases := map[string]string{
		"syntax":    LabelSyntax,
		"attribute": LabelAttr,
		"name":      LabelName,
		"argument":  LabelArgument,
		"operation": LabelOperation,
		"value":     LabelOperation,
		"index":     LabelOperation,
		"limit":     LabelOperation,
		"whatever":  LabelOperation,
	}
	for class, want := range cases {
		if got := LabelForClass(class); got != want {
			t.Errorf("LabelForClass(%s) = %s, want %s", class, got, want)
		}
	}
}

func TestGoldenStageOnBrokenGolden(t *testing.T) {
	ev := trafficEval()
	q := queries.Query{
		ID: "fake", App: queries.AppTraffic, Complexity: queries.Easy,
		Text:   "fake",
		Golden: map[string]string{"networkx": "return undefined_thing"},
	}
	rec := ev.EvaluateCode(q, prompt.BackendNetworkX, "return 1")
	if rec.Stage != StageGolden || rec.ErrClass != LabelHarness {
		t.Fatalf("rec = %+v", rec)
	}
	// Missing golden entirely.
	q.Golden = nil
	rec = ev.EvaluateCode(q, prompt.BackendNetworkX, "return 1")
	if rec.Stage != StageGolden {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestDiagnosisInstanceBindings(t *testing.T) {
	build := DatasetFor(queries.AppDiagnosis)
	inst := build()
	b := inst.Bindings(prompt.BackendNetworkX)
	if _, ok := b["probes"]; !ok {
		t.Fatal("networkx bindings missing probes")
	}
	bp := inst.Bindings(prompt.BackendPandas)
	if _, ok := bp["probes_df"]; !ok {
		t.Fatal("pandas bindings missing probes_df")
	}
}
