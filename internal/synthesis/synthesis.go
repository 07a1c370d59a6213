// Package synthesis implements the complementary program-synthesis
// techniques of the paper's case study (§4.4): pass@k sampling and
// self-debug (feeding the failure back to the model for one repair round).
// Both operate purely through the llm.Model interface and the evaluator,
// so they apply unchanged to a live model.
package synthesis

import (
	"repro/internal/llm"
	"repro/internal/nemoeval"
	"repro/internal/nql"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/sandbox"
)

// PassAtKResult reports one pass@k evaluation.
type PassAtKResult struct {
	QueryID  string
	K        int
	Solved   bool
	SolvedAt int // 1-based attempt index (0 when unsolved)
	Records  []*nemoeval.Record
}

// PassAtK samples the model up to k times (temperature > 0) and succeeds
// if any sample passes evaluation (Chen et al.'s pass@k).
func PassAtK(ev *nemoeval.Evaluator, model llm.Model, q queries.Query, backend string, k int, temperature float64) *PassAtKResult {
	res := &PassAtKResult{QueryID: q.ID, K: k}
	for attempt := 1; attempt <= k; attempt++ {
		rec := ev.EvaluateModel(model, q, backend, attempt, temperature)
		res.Records = append(res.Records, rec)
		if rec.Pass {
			res.Solved = true
			res.SolvedAt = attempt
			return res
		}
	}
	return res
}

// SelectionResult reports one execution-consistency selection run.
type SelectionResult struct {
	QueryID string
	K       int
	// Chosen is the index (1-based attempt) of the selected sample, 0 when
	// no sample executed successfully.
	Chosen int
	// Agreement is the size of the largest result-equivalence class.
	Agreement int
	// Pass reports whether the selected sample passes evaluation.
	Pass bool
}

// SelectByConsistency implements code selection via execution-result
// agreement (Shi et al., EMNLP 2022; the paper's §2.2 "code selection"
// family): sample k programs, execute each on its own fresh instance, group
// successful executions by result, and select a program from the largest
// agreement class. Crashing samples never win; consistently-wrong programs
// can — the technique helps when failures are errors, not when they are
// systematic miscalculations (see the tests for a measured example).
func SelectByConsistency(ev *nemoeval.Evaluator, model llm.Model, q queries.Query, backend string, k int, temperature float64) *SelectionResult {
	res := &SelectionResult{QueryID: q.ID, K: k}
	type sample struct {
		attempt int
		rec     *nemoeval.Record
		key     string
	}
	var ok []sample
	inst := ev.Build()
	p := prompt.BuildCodePrompt(inst.Wrapper, backend, q.Text)
	for attempt := 1; attempt <= k; attempt++ {
		resp, err := model.Generate(llm.Request{Prompt: p, Temperature: temperature, Attempt: attempt})
		if err != nil {
			continue
		}
		rec := ev.EvaluateCode(q, backend, resp.Text)
		rec.Model = model.Name()
		if rec.Stage == nemoeval.StageExecute || rec.Stage == nemoeval.StageGolden {
			continue // crashed: cannot participate in agreement
		}
		// Result key: the record passed or failed comparison; group by the
		// program's observable outcome. Re-run to capture the value
		// fingerprint cheaply via the generated code itself.
		key := resultKey(ev, q, backend, resp.Text)
		ok = append(ok, sample{attempt: attempt, rec: rec, key: key})
	}
	if len(ok) == 0 {
		return res
	}
	counts := map[string]int{}
	for _, s := range ok {
		counts[s.key]++
	}
	bestKey, bestN := "", 0
	for _, s := range ok { // first-appearance order for determinism
		if counts[s.key] > bestN {
			bestKey, bestN = s.key, counts[s.key]
		}
	}
	res.Agreement = bestN
	for _, s := range ok {
		if s.key == bestKey {
			res.Chosen = s.attempt
			res.Pass = s.rec.Pass
			break
		}
	}
	return res
}

// resultKey executes code on a fresh instance and fingerprints its result
// and post-run graph state.
func resultKey(ev *nemoeval.Evaluator, q queries.Query, backend, code string) string {
	inst := ev.Build()
	r := sandboxRun(code, inst, backend)
	if r == nil {
		return "<error>"
	}
	key := nql.Repr(r)
	if backend == prompt.BackendNetworkX {
		key += "|" + inst.G().Fingerprint()
	}
	return key
}

func sandboxRun(code string, inst *nemoeval.Instance, backend string) nql.Value {
	res := sandbox.Run(code, inst.Bindings(backend), sandbox.DefaultPolicy)
	if !res.OK() {
		return nil
	}
	return res.Value
}

// SelfDebugResult reports one self-debug evaluation.
type SelfDebugResult struct {
	QueryID     string
	FirstPass   bool // solved without repair
	Repaired    bool // solved by the repair round
	FirstRecord *nemoeval.Record
	FixRecord   *nemoeval.Record
}

// SelfDebug evaluates the model once and, on failure, sends the error
// message back in a repair prompt and evaluates the corrected program
// (Chen et al.'s self-debugging, one round as in the paper's case study).
func SelfDebug(ev *nemoeval.Evaluator, model llm.Model, q queries.Query, backend string) (*SelfDebugResult, error) {
	res := &SelfDebugResult{QueryID: q.ID}
	first := ev.EvaluateModel(model, q, backend, 1, 0)
	res.FirstRecord = first
	if first.Pass {
		res.FirstPass = true
		return res, nil
	}
	inst := ev.Build()
	original := prompt.BuildCodePrompt(inst.Wrapper, backend, q.Text)
	repair := prompt.BuildRepairPrompt(original, first.Code, first.Err)
	resp, err := model.Generate(llm.Request{Prompt: repair})
	if err != nil {
		return res, nil // token-limit on repair counts as unrepaired
	}
	fix := ev.EvaluateCode(q, backend, resp.Text)
	fix.Model = model.Name()
	res.FixRecord = fix
	res.Repaired = fix.Pass
	return res, nil
}

// CaseStudy reproduces Table 6: Bard with the NetworkX approach on the
// three initially-failing MALT queries, reporting baseline accuracy over
// the full MALT suite (pass@1), pass@5 over the failing queries, and
// self-debug over the failing queries.
type CaseStudy struct {
	Pass1     float64 // baseline accuracy over all 9 MALT queries
	Pass5     float64 // fraction of case-study queries solved within 5 samples
	SelfDebug float64 // fraction of case-study queries repaired
}

// RunCaseStudy executes the Table 6 experiment.
func RunCaseStudy() (*CaseStudy, error) {
	ev := nemoeval.NewEvaluator(nemoeval.MALTDataset())
	model, err := llm.NewSim("bard")
	if err != nil {
		return nil, err
	}
	out := &CaseStudy{}
	// Baseline pass@1 over the whole MALT suite.
	pass := 0
	for _, q := range queries.MALT() {
		rec := ev.EvaluateModel(model, q, prompt.BackendNetworkX, 1, 0)
		if rec.Pass {
			pass++
		}
	}
	out.Pass1 = float64(pass) / float64(len(queries.MALT()))
	// pass@5 and self-debug on the case-study queries.
	solved5, fixed := 0, 0
	for _, id := range llm.CaseStudyQueries {
		q, ok := queries.ByID(id)
		if !ok {
			continue
		}
		p := PassAtK(ev, model, q, prompt.BackendNetworkX, 5, 0.7)
		if p.Solved {
			solved5++
		}
		sd, err := SelfDebug(ev, model, q, prompt.BackendNetworkX)
		if err != nil {
			return nil, err
		}
		if sd.FirstPass || sd.Repaired {
			fixed++
		}
	}
	n := float64(len(llm.CaseStudyQueries))
	out.Pass5 = float64(solved5) / n
	out.SelfDebug = float64(fixed) / n
	return out, nil
}
