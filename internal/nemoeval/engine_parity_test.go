package nemoeval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/nql"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
)

// goldenPinsPath holds the pinned outcome of every registry query's golden
// program on every backend that has one.
const goldenPinsPath = "testdata/golden_pins.json"

// goldenPin is the pinned outcome of one golden program on one backend.
type goldenPin struct {
	Query   string `json:"query"`
	Backend string `json:"backend"`
	Value   string `json:"value"` // nql.Repr of the result
	Stdout  string `json:"stdout,omitempty"`
	Err     string `json:"err,omitempty"`
	State   string `json:"state"` // stateDigest of the instance after the run
}

// runGolden executes one program on a fresh instance, returning the
// sandbox result and the post-run instance.
func runGolden(build InstanceBuilder, src, backend string) (*sandbox.Result, *Instance) {
	inst := build()
	res := sandbox.Run(src, inst.Bindings(backend), sandbox.DefaultPolicy)
	return res, inst
}

// stateDigest is the hex SHA-256 of dumpState.
func stateDigest(backend string, inst *Instance) (string, error) {
	h := sha256.New()
	if err := dumpState(h, backend, inst); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dumpState writes a full, ordered dump of the substrates bound for
// backend: the graph as node-link JSON (MarshalJSON emits nodes and edges
// in insertion order and sorts every attribute map), every frame and SQL
// table cell by cell in column order, and the probes list. Frame.String is
// no substitute: it truncates at 20 rows.
func dumpState(w io.Writer, backend string, inst *Instance) error {
	switch backend {
	case prompt.BackendFederated:
		for _, b := range []string{prompt.BackendNetworkX, prompt.BackendPandas, prompt.BackendSQL} {
			if err := dumpState(w, b, inst); err != nil {
				return err
			}
		}
	case prompt.BackendNetworkX:
		data, err := inst.G().MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "graph %s\n", data)
		if probes := inst.probesList(); probes != nil {
			fmt.Fprintf(w, "probes %s\n", nql.Repr(probes))
		}
	case prompt.BackendPandas:
		nodes, edges := inst.Frames()
		dumpFrame(w, "nodes_df", nodes)
		dumpFrame(w, "edges_df", edges)
		if inst.probesFrame != nil {
			dumpFrame(w, "probes_df", inst.probesFrame)
		}
	case prompt.BackendSQL:
		db := inst.Database()
		for _, name := range db.TableNames() {
			t, err := db.Table(name)
			if err != nil {
				return err
			}
			dumpFrame(w, "table "+name, t)
		}
	}
	return nil
}

func dumpFrame(w io.Writer, name string, f *dataframe.Frame) {
	fmt.Fprintf(w, "frame %s rows=%d\n", name, f.NumRows())
	for _, col := range f.Columns() {
		cells, _ := f.Column(col)
		fmt.Fprintf(w, "column %q\n", col)
		for _, v := range cells {
			fmt.Fprintf(w, "%T %v\n", v, v)
		}
	}
}

// TestEngineParityGoldens holds every registry query's golden program, on
// every backend that has one, to its pinned value, stdout, error string and
// post-run state digest (testdata/golden_pins.json). The pins were recorded
// while NQL still had a second, tree-walking engine, and both engines
// reproduced every one of them.
func TestEngineParityGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden matrix in -short mode")
	}
	data, err := os.ReadFile(goldenPinsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []goldenPin
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenPin{}
	for _, p := range pins {
		want[p.Query+"/"+p.Backend] = p
	}
	builders := map[string]InstanceBuilder{}
	seen := 0
	for _, q := range queries.All() {
		if _, ok := builders[q.App]; !ok {
			builders[q.App] = DatasetFor(q.App)
		}
		for _, backend := range prompt.AllBackends {
			golden, ok := q.Golden[backend]
			if !ok {
				continue
			}
			name := q.ID + "/" + backend
			pin, ok := want[name]
			if !ok {
				t.Errorf("%s: no pinned outcome", name)
				continue
			}
			seen++
			res, inst := runGolden(builders[q.App], golden, backend)
			gotErr := ""
			if res.Err != nil {
				gotErr = res.Err.Error()
			}
			if gotErr != pin.Err {
				t.Errorf("%s: error = %q, want %q", name, gotErr, pin.Err)
			}
			if got := nql.Repr(res.Value); got != pin.Value {
				t.Errorf("%s: value diverged\ngot:  %s\nwant: %s", name, got, pin.Value)
			}
			if res.Stdout != pin.Stdout {
				t.Errorf("%s: stdout = %q, want %q", name, res.Stdout, pin.Stdout)
			}
			digest, err := stateDigest(backend, inst)
			if err != nil {
				t.Errorf("%s: dumping state: %v", name, err)
			} else if digest != pin.State {
				t.Errorf("%s: post-run state digest %s, want %s", name, digest, pin.State)
			}
		}
	}
	if seen != len(pins) {
		t.Errorf("%d pinned cases, %d golden programs matched one", len(pins), seen)
	}
}

// TestEngineParityMutants pins the exact error string and class of the
// fault-injected generations (the error paths the Table 5 taxonomy
// buckets) on a representative query.
func TestEngineParityMutants(t *testing.T) {
	// Mechanical fault classes are deterministic; wrong-calc/graph-diff
	// variants execute successfully and are covered by the golden pins.
	cases := []struct{ fault, err, class string }{
		{`let raw = read_csv("network_data.csv")`,
			`nql name error on line 1: undefined name "read_csv"`, "name"},
		{`let banner = "total nodes: " + 0`,
			"nql operation error on line 1: cannot add string and int (use str())", "operation"},
		{`let check = graph.degree()`,
			"nql argument error on line 1: degree() takes 1 argument(s), got 0", "argument"},
		{`let check = graph.node(graph.nodes()[0])["bandwidth"]`,
			`nql attribute error on line 1: node "h000" has no attribute "bandwidth"`, "attribute"},
	}
	build := TrafficDataset(DefaultTrafficConfig)
	q, ok := queries.ByID("ta-e1")
	if !ok {
		t.Fatal("missing query ta-e1")
	}
	golden := q.Golden[prompt.BackendNetworkX]
	for _, c := range cases {
		res, _ := runGolden(build, c.fault+"\n"+golden, prompt.BackendNetworkX)
		if res.OK() {
			t.Errorf("fault %q unexpectedly succeeded", c.fault)
			continue
		}
		if res.Err.Error() != c.err {
			t.Errorf("fault %q: error = %q, want %q", c.fault, res.Err, c.err)
		}
		if res.ErrClass != c.class {
			t.Errorf("fault %q: class = %s, want %s", c.fault, res.ErrClass, c.class)
		}
	}
}

// TestPromptContextForcesLazyGraph pins that the shared prompt instance
// serializes the graph even for datasets built with a lazy graph (the
// strawman baseline embeds it in every prompt).
func TestPromptContextForcesLazyGraph(t *testing.T) {
	e := NewEvaluator(MALTDataset())
	inst, graphJSON, err := e.promptContext()
	if err != nil {
		t.Fatal(err)
	}
	if inst.G() == nil || graphJSON == "" {
		t.Fatalf("lazy-graph prompt context missing graph JSON (len %d)", len(graphJSON))
	}
}

// goldenStepsPath holds the VM step count of every registry query's golden
// program on every backend that has one, recorded while every
// `for r in x.records()` loop still built its row maps.
const goldenStepsPath = "testdata/golden_steps.json"

// TestGoldenSteps holds every golden program's sandbox.Result.Steps to its
// pinned count. A for loop in row form skips the records() call and the
// iterator snapshot it replaces but charges them, so the count must not
// depend on which form a loop ran in.
func TestGoldenSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden matrix in -short mode")
	}
	data, err := os.ReadFile(goldenStepsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins []struct {
		Query   string `json:"query"`
		Backend string `json:"backend"`
		Steps   int    `json:"steps"`
	}
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	builders := map[string]InstanceBuilder{}
	for _, p := range pins {
		q, ok := queries.ByID(p.Query)
		if !ok {
			t.Errorf("%s: no such query", p.Query)
			continue
		}
		if _, ok := builders[q.App]; !ok {
			builders[q.App] = DatasetFor(q.App)
		}
		res, _ := runGolden(builders[q.App], q.Golden[p.Backend], p.Backend)
		if res.Steps != p.Steps {
			t.Errorf("%s/%s: %d steps, want %d", p.Query, p.Backend, res.Steps, p.Steps)
		}
	}
	if len(pins) == 0 {
		t.Fatal("no pinned step counts")
	}
}
