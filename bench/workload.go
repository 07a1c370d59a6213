package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/llm"
	"repro/internal/nemoeval"
	"repro/internal/prompt"
	"repro/internal/queries"
	"repro/internal/traffic"
)

// Workload names, in the order nqbench runs them.
const (
	CatalogSmall = "catalog-small"
	FedAnalytics = "fed-analytics"
	GenUnique    = "gen-unique"
	EvalMatrix   = "eval-matrix"
)

// Workloads lists every workload in run order.
var Workloads = []string{CatalogSmall, FedAnalytics, GenUnique, EvalMatrix}

// mix is one netqueryd traffic mix. Why each mix exists is in README.md.
type mix struct {
	nodes, edges int
	// rate is the open-loop arrival rate in requests/s: about a tenth of
	// the closed-loop capacity measured when the benchmark was defined
	// (fed-analytics: a seventh). Higher rates queue behind GC cycles and
	// host hiccups and made p90 swing by a third between runs.
	rate float64
	// unique prefixes every send with a "# request <seed>-<i>" line, so no
	// two sends share a source text and no source-keyed cache can hit.
	unique bool
	// requests returns the mix's distinct requests and its send list as
	// indexes into them, before the seeded shuffle.
	requests func(seed int64, ds traffic.Config) ([]request, []int, error)
}

var mixes = map[string]*mix{
	CatalogSmall: {nodes: 80, edges: 80, rate: 1000, requests: catalogRequests},
	FedAnalytics: {nodes: 600, edges: 6000, rate: 20, requests: fedRequests},
	GenUnique:    {nodes: 80, edges: 80, rate: 400, unique: true, requests: generatedRequests},
}

// dataset is the mix's traffic graph for a seed.
func (m *mix) dataset(seed int64) traffic.Config {
	return traffic.Config{Nodes: m.nodes, Edges: m.edges, Seed: seed}
}

// request is one distinct query of a mix; expected outcomes are indexed
// like the mix's distinct requests.
type request struct {
	QueryID string
	Query   string
	Backend string
}

// wireRequest is the POST /v1/query body.
type wireRequest struct {
	Tenant  string `json:"tenant"`
	Query   string `json:"query,omitempty"`
	QueryID string `json:"query_id,omitempty"`
	Backend string `json:"backend,omitempty"`
}

// tenantCount and tenantSkew shape the tenant draw: four tenants, Zipf
// α=1.5, so one tenant dominates as hub tenants do in practice.
const (
	tenantCount = 4
	tenantSkew  = 1.5
	// tenantDraws is the length of the cycled tenant sequence.
	tenantDraws = 1 << 13
)

// inputs is everything a mix sends, generated from the seed alone; the
// orchestrator and the measured child derive identical copies.
type inputs struct {
	mix      *mix
	seed     int64
	dataset  traffic.Config
	distinct []request
	order    []int    // send sequence as indexes into distinct, cycled
	tenants  []string // tenant of each send, cycled
}

// newInputs generates a mix's inputs. The seed picks the traffic dataset,
// the request parameters, the send order and the tenant draws.
func newInputs(name string, seed int64) (*inputs, error) {
	m, ok := mixes[name]
	if !ok {
		return nil, fmt.Errorf("nqbench: %q is not a service workload", name)
	}
	ds := m.dataset(seed)
	distinct, order, err := m.requests(seed, ds)
	if err != nil {
		return nil, fmt.Errorf("nqbench: %s inputs: %w", name, err)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	zipf := rand.NewZipf(rng, tenantSkew, 1, tenantCount-1)
	tenants := make([]string, tenantDraws)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", zipf.Uint64())
	}
	return &inputs{mix: m, seed: seed, dataset: ds, distinct: distinct, order: order, tenants: tenants}, nil
}

// at returns send i: its tenant, the index of its distinct request, and the
// request as sent.
func (in *inputs) at(i int64) (tenant string, k int, req request) {
	k = in.order[i%int64(len(in.order))]
	req = in.distinct[k]
	if in.mix.unique {
		req = in.tagged(k, strconv.FormatInt(i, 10))
	}
	return in.tenants[i%int64(len(in.tenants))], k, req
}

// tagged returns distinct request k, made unique by tag when the mix sends
// unique sources. The tag is a comment, so it changes no outcome.
func (in *inputs) tagged(k int, tag string) request {
	req := in.distinct[k]
	if in.mix.unique {
		req.Query = fmt.Sprintf("# request %d-%s\n%s", in.seed, tag, req.Query)
	}
	return req
}

// body encodes one request as a POST /v1/query body.
func body(tenant string, req request) []byte {
	b, err := json.Marshal(wireRequest{Tenant: tenant, Query: req.Query, QueryID: req.QueryID, Backend: req.Backend})
	if err != nil {
		panic(err) // strings only: Marshal cannot fail
	}
	return b
}

// catalogRequests is catalog-small: the 24 traffic catalog queries on the
// auto backend, sent round-robin.
func catalogRequests(int64, traffic.Config) ([]request, []int, error) {
	var reqs []request
	var order []int
	for i, q := range queries.Traffic() {
		reqs = append(reqs, request{QueryID: q.ID})
		order = append(order, i)
	}
	return reqs, order, nil
}

// fedSources bounds the node IDs fed-analytics draws, and so its distinct
// sources (three templates per node), well below what the warmup pass
// covers: the vet, program and plan caches all hit once measuring starts.
const fedSources = 40

// fedTemplates are fed-analytics' three raw federated programs: a
// pushed-down scan+filter+count, a sql×graph join with sort and limit, and
// a dataframe group-by aggregate. Each takes one node ID; the third uses
// its first three characters as a prefix (ten nodes at 600).
var fedTemplates = []func(id string) string{
	func(id string) string {
		return fmt.Sprintf(`return fed.scan("sql", "edges").filter("src", "==", %q).count()`, id)
	},
	func(id string) string {
		return fmt.Sprintf(`let rows = fed.scan("sql", "edges").filter("src", "==", %q).join(fed.scan("graph", "nodes"), "dst", "id").project("dst", "ip", "bytes").sort("dst").sort("bytes", false).limit(5).collect()
let out = []
for r in rows { push(out, [r["dst"], r["ip"], r["bytes"]]) }
return out`, id)
	},
	func(id string) string {
		return fmt.Sprintf(`let f = fed.scan("frame", "edges").filter("src", "prefix", %q).agg(["dst"], ["bytes", "sum", "b"], ["packets", "sum", "p"], ["src", "count", "n"])
return f.sort("dst").collect()`, id[:3])
	},
}

// fedRequests is fed-analytics: the templates over node IDs drawn from a
// seeded traffic.Stream of the same scale as the dataset.
func fedRequests(seed int64, ds traffic.Config) ([]request, []int, error) {
	st, err := traffic.NewStream(ds)
	if err != nil {
		return nil, nil, err
	}
	seenID := map[string]bool{}
	seenSrc := map[string]bool{}
	var reqs []request
	var order []int
	for len(seenID) < fedSources {
		batch := st.Next(256)
		if len(batch) == 0 {
			return nil, nil, fmt.Errorf("stream ended after %d node IDs", len(seenID))
		}
		for _, e := range batch {
			if seenID[e.U] || len(seenID) == fedSources {
				continue
			}
			seenID[e.U] = true
			for _, tmpl := range fedTemplates {
				src := tmpl(e.U)
				if seenSrc[src] {
					continue
				}
				seenSrc[src] = true
				order = append(order, len(reqs))
				reqs = append(reqs, request{Query: src, Backend: prompt.BackendFederated})
			}
		}
	}
	return reqs, order, nil
}

// genBackends, genAttempts and genTemperature shape gen-unique's programs:
// what the simulated models write for every traffic query on the three
// paper backends, sampled like a pass@5 run.
var genBackends = []string{prompt.BackendNetworkX, prompt.BackendPandas, prompt.BackendSQL}

const (
	genAttempts    = 5
	genTemperature = 0.7
)

// generatedRequests is gen-unique: every program the four simulated models
// generate for the 24 traffic queries, once per (query, model, backend,
// attempt). Identical programs share one distinct request.
func generatedRequests(_ int64, ds traffic.Config) ([]request, []int, error) {
	wrapper := nemoeval.TrafficDataset(ds)().Wrapper
	index := map[request]int{}
	var reqs []request
	var order []int
	for _, q := range queries.Traffic() {
		for _, name := range llm.ModelNames {
			sim, err := llm.NewSim(name)
			if err != nil {
				return nil, nil, err
			}
			for _, backend := range genBackends {
				p := prompt.BuildCodePrompt(wrapper, backend, q.Text)
				for a := 1; a <= genAttempts; a++ {
					resp, err := sim.Generate(llm.Request{Prompt: p, Temperature: genTemperature, Attempt: a})
					if err != nil {
						continue // token-window overflow: nothing to send
					}
					r := request{Query: resp.Text, Backend: backend}
					k, ok := index[r]
					if !ok {
						k = len(reqs)
						index[r] = k
						reqs = append(reqs, r)
					}
					order = append(order, k)
				}
			}
		}
	}
	return reqs, order, nil
}
