package bench

import (
	_ "embed"
	"fmt"
	"strings"

	"repro/internal/llm"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
	"repro/internal/traffic"
)

// evalGolden is the Table 2 matrix as the repository renders it: the table
// and every record's pass and error class, in matrix order.
//
//go:embed testdata/eval-matrix.golden
var evalGolden string

// runMatrix regenerates Table 2 once on a fresh runner with `workers`
// workers: RunApp(traffic, strawman), then RunApp(malt).
func runMatrix(workers int) (string, []*nemoeval.Record, error) {
	r := nemoeval.NewRunner()
	r.Workers = workers
	table, err := r.Table2()
	if err != nil {
		return "", nil, err
	}
	return table, r.Log.Records(), nil
}

// renderMatrix renders one matrix run in the golden file's format.
func renderMatrix(table string, recs []*nemoeval.Record) string {
	var sb strings.Builder
	sb.WriteString(table)
	sb.WriteString("\nrecords: app model backend query trial pass class\n")
	for _, r := range recs {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\t%d\t%t\t%s\n", r.App, r.Model, r.Backend, r.QueryID, r.Trial, r.Pass, r.ErrClass)
	}
	return sb.String()
}

// checkMatrix checks one matrix run against the golden file: the rendered
// table is one checked output and each record another.
func checkMatrix(c *checker, table string, recs []*nemoeval.Record) {
	got := strings.Split(renderMatrix(table, recs), "\n")
	want := strings.Split(evalGolden, "\n")
	n := len(want)
	if len(got) > n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g == "" && w == "" {
			continue
		}
		c.check(outcome{Result: g}, nil, outcome{Result: w}, func() string { return fmt.Sprintf("eval-matrix line %d", i+1) })
	}
}

// goldenVerdicts maps each golden record's identity (app, model, backend,
// query, trial) to its "pass\tclass" verdict.
func goldenVerdicts() map[string]string {
	out := map[string]string{}
	_, recs, _ := strings.Cut(evalGolden, "\nrecords: ")
	for _, line := range strings.Split(recs, "\n")[1:] {
		f := strings.SplitN(line, "\t", 7)
		if len(f) == 7 {
			out[strings.Join(f[:5], "\t")] = f[5] + "\t" + f[6]
		}
	}
	return out
}

// trial is one evaluated cell trial of the Table 2 matrix.
type trial struct {
	app, model, backend string
	q                   queries.Query
	n                   int
}

func (t trial) key() string {
	return fmt.Sprintf("%s\t%s\t%s\t%s\t%d", t.app, t.model, t.backend, t.q.ID, t.n)
}

// matrixTrials enumerates Table 2's trials in RunApp's order.
func matrixTrials() []trial {
	r := nemoeval.NewRunner()
	var out []trial
	for _, app := range []string{queries.AppTraffic, queries.AppMALT} {
		suite := queries.MALT()
		backends := append([]string(nil), prompt.Backends...)
		if app == queries.AppTraffic {
			suite = queries.Traffic()
			backends = append([]string{"strawman"}, backends...)
		}
		for _, model := range r.Models {
			for _, backend := range backends {
				for _, q := range suite {
					for n := 1; n <= r.TrialsFor(model); n++ {
						out = append(out, trial{app: app, model: model, backend: backend, q: q, n: n})
					}
				}
			}
		}
	}
	return out
}

// strawmanConfig sizes the strawman graph to the model's context window,
// as the runner does for Table 2.
func strawmanConfig(model string) traffic.Config {
	switch model {
	case "gpt-3":
		return traffic.Config{Nodes: 20, Edges: 20, Seed: 42}
	case "text-davinci-003", "bard":
		return traffic.Config{Nodes: 45, Edges: 45, Seed: 42}
	default:
		return nemoeval.DefaultTrafficConfig
	}
}

// appEval is one evaluator with the read-only instance prompts are built
// from (and, for the strawman, the graph JSON inlined into its prompt).
type appEval struct {
	ev        *nemoeval.Evaluator
	wrapper   prompt.AppWrapper
	graphJSON string
}

func newAppEval(build nemoeval.InstanceBuilder, strawman bool) (*appEval, error) {
	inst := build()
	ae := &appEval{ev: nemoeval.NewEvaluator(build), wrapper: inst.Wrapper}
	if strawman {
		data, err := inst.G().MarshalJSON()
		if err != nil {
			return nil, err
		}
		ae.graphJSON = string(data)
	}
	return ae, nil
}

// matrixRound is one pass over the matrix's trials with fresh evaluators,
// so golden programs run once per round as they do once per RunApp.
type matrixRound struct {
	apps  map[string]*appEval // by app
	straw map[string]*appEval // strawman evaluators, by model
}

func newMatrixRound() (*matrixRound, error) {
	rd := &matrixRound{apps: map[string]*appEval{}, straw: map[string]*appEval{}}
	for _, app := range []string{queries.AppTraffic, queries.AppMALT} {
		ae, err := newAppEval(nemoeval.DatasetFor(app), false)
		if err != nil {
			return nil, err
		}
		rd.apps[app] = ae
	}
	for _, model := range llm.ModelNames {
		ae, err := newAppEval(nemoeval.TrafficDataset(strawmanConfig(model)), true)
		if err != nil {
			return nil, err
		}
		rd.straw[model] = ae
	}
	return rd, nil
}

// matrixPath replays Table 2's trials through the public function behind
// each phase of Evaluator.EvaluateModel and EvaluateStrawman, in their
// order, with a span around each call. It belongs to one goroutine.
type matrixPath struct {
	trials []trial
	want   map[string]string
	rd     *matrixRound // evaluators of the current pass over the trials
}

func newMatrixPath() *matrixPath {
	return &matrixPath{trials: matrixTrials(), want: goldenVerdicts()}
}

// run replays trial i of the cycled matrix and checks its verdict. Each
// pass over the trials starts with fresh evaluators.
func (p *matrixPath) run(t *reqTrace, acc *layerAcc, c *checker, i int64) {
	tr := p.trials[i%int64(len(p.trials))]
	if p.rd == nil || i%int64(len(p.trials)) == 0 {
		rd, err := newMatrixRound()
		if err != nil {
			c.check(outcome{}, err, outcome{}, func() string { return "eval-matrix evaluators" })
			return
		}
		p.rd = rd
	}
	pass, class, prog := evalTrial(t, p.rd, tr)
	acc.add(t)
	if prog != nil {
		acc.prof.run(p.rd.apps[tr.app].ev.Build(), tr.backend, prog)
	}
	got := fmt.Sprintf("%t\t%s", pass, class)
	c.check(outcome{Result: got}, nil, outcome{Result: p.want[tr.key()]}, func() string { return "eval-matrix trial " + tr.key() })
}

// evalTrial evaluates one trial, returning its pass and error class and,
// when generated code compiled, the program for the profiled re-run.
func evalTrial(t *reqTrace, rd *matrixRound, tr trial) (bool, string, *nql.Program) {
	t.begin("trial")
	defer t.end()
	sim, err := llm.NewSim(tr.model)
	if err != nil {
		return false, nemoeval.LabelHarness, nil
	}
	if tr.backend == "strawman" {
		ae := rd.straw[tr.model]
		t.begin("nemoeval.golden")
		oracle, err := ae.ev.OracleAnswer(tr.q)
		t.end()
		if err != nil {
			return false, nemoeval.LabelHarness, nil
		}
		sim.SetOracle(tr.q.Text, oracle)
		t.begin("prompt.build")
		pr := prompt.BuildStrawmanPrompt(ae.wrapper, ae.graphJSON, tr.q.Text)
		t.end()
		t.begin("llm.generate")
		resp, err := sim.Generate(llm.Request{Prompt: pr})
		t.end()
		if err != nil {
			return false, nemoeval.LabelForGenerateErr(err), nil
		}
		t.begin("nemoeval.compare")
		ok := resp.Text == oracle
		t.end()
		if !ok {
			return false, nemoeval.LabelWrongCalc, nil
		}
		return true, "", nil
	}

	ae := rd.apps[tr.app]
	t.begin("prompt.build")
	pr := prompt.BuildCodePrompt(ae.wrapper, tr.backend, tr.q.Text)
	t.end()
	t.begin("llm.generate")
	resp, err := sim.Generate(llm.Request{Prompt: pr, Attempt: tr.n})
	t.end()
	if err != nil {
		return false, nemoeval.LabelForGenerateErr(err), nil
	}
	t.begin("nemoeval.golden")
	goldVal, goldInst, err := ae.ev.RunGolden(tr.q, tr.backend)
	t.end()
	if err != nil {
		return false, nemoeval.LabelHarness, nil
	}
	inst, globals := cloneAndBind(t, ae.ev.Build, tr.backend)
	t.begin("sandbox.compile")
	prog, err := sandbox.Compile(resp.Text)
	t.end()
	if err != nil {
		return false, nemoeval.LabelForClass(nql.ClassOf(err)), nil
	}
	t.begin("nql.exec")
	res := sandbox.RunProgram(prog, globals, ae.ev.Policy)
	t.end()
	if !res.OK() {
		return false, nemoeval.LabelForClass(res.ErrClass), prog
	}
	t.begin("nemoeval.compare")
	valueOK := nemoeval.ResultEqual(goldVal, res.Value)
	stateOK := nemoeval.StateEqual(tr.backend, goldInst, inst)
	t.end()
	switch {
	case valueOK && stateOK:
		return true, "", prog
	case !stateOK:
		return false, nemoeval.LabelGraphDiff, prog
	default:
		return false, nemoeval.LabelWrongCalc, prog
	}
}
