// Package routing implements the paper's evaluation routing protocol (§5):
// "a rudimentary algorithm that runs in a central controller and assumes all
// links and nodes are identical. It calculates a network path together with
// link fidelities as a function of end-to-end requirements by simulating the
// worst case scenario where every link-pair is swapped just before its
// cutoff timer pops."
//
// The worst-case simulation here is literal: candidate link fidelities are
// evaluated by ageing the hardware model's produced state for the cutoff
// interval on both qubits and composing noisy entanglement swaps with the
// same quantum engine the data plane uses, then bisecting for the smallest
// link fidelity that still meets the end-to-end target.
//
// Beyond the paper, the controller places circuits rather than merely
// routing them: Place (the typed PlacementRequest/PlacementDecision API)
// enumerates up to K loopless candidate paths with Yen's algorithm, budgets
// each candidate with the worst-case simulation above, scores it by its
// modeled deliverable end-to-end rate against the current link membership,
// and — when admission control would reject a MinEER demand on the
// shortest path — falls back to the first candidate that can absorb it.
// Under admission control each link's pair-rate budget is divided among
// its member circuits by an AllocPolicy: equal count-split, model-weighted
// (proportional to each member's modeled deliverable rate), or frozen
// static halves.
package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"qnp/internal/hardware"
	"qnp/internal/linalg"
	"qnp/internal/quantum"
	"qnp/internal/sim"
)

// CutoffPolicy selects how the controller sets the circuit's cutoff timer.
type CutoffPolicy int

// Cutoff policies from the evaluation section. The zero value is the
// paper's default policy.
const (
	// CutoffLong is the default: "the time it takes a link-pair to lose
	// approximately 1.5% of its initial fidelity".
	CutoffLong CutoffPolicy = iota
	// CutoffShort is §5.1's alternative: "the time it takes for a link to
	// have a 0.85 probability of generating a link-pair".
	CutoffShort
	// CutoffNone disables the cutoff — the oracle baseline of §5.2 runs
	// this way.
	CutoffNone
	// CutoffManual uses a hand-picked value (§5.3 near-term evaluation:
	// "we tune the cutoff timer to ensure we meet the end-to-end fidelity
	// threshold").
	CutoffManual
)

func (p CutoffPolicy) String() string {
	switch p {
	case CutoffNone:
		return "none"
	case CutoffLong:
		return "long"
	case CutoffShort:
		return "short"
	case CutoffManual:
		return "manual"
	}
	return "CutoffPolicy(?)"
}

// Graph is the controller's view of the network topology. Links carry their
// physical configuration; nodes are identified by name.
type Graph struct {
	nodes map[string]bool
	links map[string]map[string]hardware.LinkConfig
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{
		nodes: make(map[string]bool),
		links: make(map[string]map[string]hardware.LinkConfig),
	}
}

// AddNode registers a node.
func (g *Graph) AddNode(id string) { g.nodes[id] = true }

// AddLink registers a bidirectional link.
func (g *Graph) AddLink(a, b string, cfg hardware.LinkConfig) {
	if !g.nodes[a] || !g.nodes[b] {
		panic(fmt.Sprintf("routing: link %s-%s with unknown node", a, b))
	}
	if g.links[a] == nil {
		g.links[a] = make(map[string]hardware.LinkConfig)
	}
	if g.links[b] == nil {
		g.links[b] = make(map[string]hardware.LinkConfig)
	}
	g.links[a][b] = cfg
	g.links[b][a] = cfg
}

// Link returns the configuration of the a-b link.
func (g *Graph) Link(a, b string) (hardware.LinkConfig, bool) {
	cfg, ok := g.links[a][b]
	return cfg, ok
}

// Nodes returns every node name in sorted order.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Neighbors returns a node's adjacent nodes in sorted order.
func (g *Graph) Neighbors(id string) []string {
	out := make([]string, 0, len(g.links[id]))
	for n := range g.links[id] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LinkCount returns the number of (bidirectional) links.
func (g *Graph) LinkCount() int {
	total := 0
	for _, nbrs := range g.links {
		total += len(nbrs)
	}
	return total / 2
}

// ShortestPath returns the path Dijkstra finds with unit link costs (all
// links identical in the paper's evaluation), breaking ties
// deterministically by node name.
func (g *Graph) ShortestPath(src, dst string) ([]string, error) {
	if !g.nodes[src] || !g.nodes[dst] {
		return nil, fmt.Errorf("routing: unknown endpoint %q or %q", src, dst)
	}
	return g.shortestPathFiltered(src, dst, nil, nil)
}

// shortestPathFiltered is ShortestPath with banned nodes and banned
// (canonically keyed) links removed from the graph — the spur searches of
// Yen's algorithm. With unit link costs Dijkstra extracts nodes in (hop
// count, name) order, so this is a breadth-first search that expands one
// layer at a time in name order and stops when dst is dequeued. A node's
// predecessor is the first expanded node that reaches it, as in Dijkstra
// with name tie-breaks, so every path (and every Yen candidate) is the
// one Dijkstra returns.
func (g *Graph) shortestPathFiltered(src, dst string, bannedNode map[string]bool, bannedLink map[string]bool) ([]string, error) {
	prev := map[string]string{src: src}
	for layer := []string{src}; len(layer) > 0; {
		var next []string
		for _, at := range layer {
			if at == dst {
				path := []string{dst}
				for at != src {
					at = prev[at]
					path = append(path, at)
				}
				slices.Reverse(path)
				return path, nil
			}
			for nb := range g.links[at] {
				if _, seen := prev[nb]; seen || bannedNode[nb] {
					continue
				}
				if len(bannedLink) > 0 && bannedLink[linkID(at, nb)] {
					continue
				}
				prev[nb] = at
				next = append(next, nb)
			}
		}
		sort.Strings(next)
		layer = next
	}
	return nil, fmt.Errorf("routing: no path %s→%s", src, dst)
}

// Plan is the controller's output for one circuit: everything the
// signalling protocol needs to install it.
type Plan struct {
	Path []string
	// LinkFidelity is the minimum fidelity each link layer request asks for.
	LinkFidelity float64
	// Cutoff is the intermediate-node discard deadline (0 when disabled).
	Cutoff sim.Duration
	// LinkPairTime is the expected generation time of one link-pair.
	LinkPairTime sim.Duration
	// MaxLPR is the reserved link-pair rate on each link (pairs/s).
	MaxLPR float64
	// MaxEER is the circuit's end-to-end rate allocation (pairs/s);
	// 0 means no admission control (the paper's evaluation admits all).
	MaxEER float64
	// WorstCaseFidelity is the end-to-end fidelity of the worst-case
	// composition the plan was validated against.
	WorstCaseFidelity float64
	// EndToEndFidelity echoes the request.
	EndToEndFidelity float64
}

// Controller is the central routing controller.
type Controller struct {
	Graph  *Graph
	Params hardware.Params
	// EnforceEER enables admission control by populating Plan.MaxEER; the
	// paper's evaluation leaves it off ("we do not perform any resource
	// management").
	EnforceEER bool
	// Policy selects how link budget divides among the circuits sharing a
	// link; the zero value is the legacy count-split rule. See
	// AllocationPolicy.
	Policy AllocationPolicy

	// members tracks installed circuits for allocation accounting, keyed by
	// circuit ID; linkMembers indexes which members hold each link, so
	// share lookups are O(path length) and a membership change re-fits only
	// the members actually sharing a link with the changed path.
	members     map[string]member
	linkMembers map[string]map[string]bool

	// plans memoises planPath per controller (created on first use). A
	// controller is driven by one simulation goroutine, so it needs no
	// lock, and it holds at most one entry per distinct planKey a run asks
	// for.
	plans map[planKey]planResult
	// swapFx is worstCase's entanglement swap, built for swapCfg, the
	// SwapConfig it derives from Params; it is rebuilt when Params change.
	// rng is worstCase's fixed-seed stream, reseeded on every call.
	swapFx  *quantum.SwapEffects
	swapCfg quantum.SwapConfig
	rng     *rand.Rand
}

// Refit is one circuit's re-fitted allocation after a membership change.
type Refit struct {
	Circuit string
	MaxEER  float64
}

// NewController builds a controller over a topology with uniform hardware.
func NewController(g *Graph, p hardware.Params) *Controller {
	return &Controller{Graph: g, Params: p, members: make(map[string]member), linkMembers: make(map[string]map[string]bool)}
}

// linkID canonically names the a-b link for membership counting.
func linkID(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// planKey is everything planPath reads: path[0]'s link configuration
// (every hop is budgeted from it), the controller's Params (exported, so a
// caller may change them between calls), the hop count, the end-to-end
// target and the cutoff rule. It must grow with planPath: once the planner
// reads every link on the path, the key must cover every link's
// configuration, and TestPlanMemoMatchesFreshController fails until it
// does.
type planKey struct {
	link   hardware.LinkConfig
	params hardware.Params
	hops   int
	// target holds the fidelity's bits, so a NaN target (never equal to
	// itself as a float) still finds its entry instead of adding one per
	// call.
	target uint64
	policy CutoffPolicy
	manual sim.Duration
}

// planResult is one memoised planPath outcome. plan.Path is nil: a hit
// puts the caller's path back. Infeasible results are kept too, since
// Yen's longer candidates are often infeasible.
type planResult struct {
	plan Plan
	err  error
}

// planPath computes the per-link fidelity budget for one concrete path:
// the smallest link fidelity whose worst-case end-to-end composition still
// meets the target, plus the cutoff and rate numbers derived from it. It
// never sets Plan.MaxEER — allocation is the placement layer's job. The
// budget is a pure function of planKey, so each key is computed once per
// controller.
func (c *Controller) planPath(path []string, e2eFidelity float64, policy CutoffPolicy, manualCutoff sim.Duration) (Plan, error) {
	link, _ := c.Graph.Link(path[0], path[1])
	key := planKey{link: link, params: c.Params, hops: len(path) - 1, target: math.Float64bits(e2eFidelity), policy: policy, manual: manualCutoff}
	r, ok := c.plans[key]
	if !ok {
		r.plan, r.err = c.planPathSlow(link, key.hops, e2eFidelity, policy, manualCutoff)
		if c.plans == nil {
			c.plans = make(map[planKey]planResult)
		}
		c.plans[key] = r
	}
	if r.err != nil {
		return Plan{}, r.err
	}
	r.plan.Path = path
	return r.plan, nil
}

// planPathSlow is planPath without the memo.
func (c *Controller) planPathSlow(link hardware.LinkConfig, hops int, e2eFidelity float64, policy CutoffPolicy, manualCutoff sim.Duration) (Plan, error) {
	_, maxF := link.MaxFidelity(c.Params)
	// Bisect the smallest link fidelity whose worst-case end-to-end
	// composition still meets the target.
	lo, hi := e2eFidelity, maxF
	if c.worstCase(link, hi, hops, policy, manualCutoff) < e2eFidelity {
		return Plan{}, fmt.Errorf("routing: %d-hop path cannot reach end-to-end fidelity %.3f", hops, e2eFidelity)
	}
	if wc := c.worstCase(link, lo, hops, policy, manualCutoff); wc >= e2eFidelity {
		hi = lo
	} else {
		for i := 0; i < 30; i++ {
			mid := (lo + hi) / 2
			if c.worstCase(link, mid, hops, policy, manualCutoff) >= e2eFidelity {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
	linkF := hi
	pairTime, ok := link.ExpectedPairTime(c.Params, linkF)
	if !ok {
		return Plan{}, fmt.Errorf("routing: link cannot produce fidelity %.3f", linkF)
	}
	plan := Plan{
		LinkFidelity:      linkF,
		Cutoff:            c.cutoffFor(link, linkF, policy, manualCutoff),
		LinkPairTime:      pairTime,
		MaxLPR:            1 / pairTime.Seconds(),
		WorstCaseFidelity: c.worstCase(link, linkF, hops, policy, manualCutoff),
		EndToEndFidelity:  e2eFidelity,
	}
	return plan, nil
}

// cutoffFor computes the cutoff per policy for pairs of the given fidelity.
func (c *Controller) cutoffFor(link hardware.LinkConfig, linkF float64, policy CutoffPolicy, manual sim.Duration) sim.Duration {
	switch policy {
	case CutoffNone:
		return 0
	case CutoffManual:
		return manual
	case CutoffShort:
		// Time for 0.85 success probability: t = ln(1/0.15)/p attempts.
		alpha, ok := link.AlphaForFidelity(c.Params, linkF)
		if !ok {
			return 0
		}
		p := link.SuccessProb(c.Params, alpha)
		attempts := math.Log(1/0.15) / p
		return link.CycleTime(c.Params).Scale(attempts)
	default: // CutoffLong
		return c.fidelityLossTime(link, linkF, 0.015)
	}
}

// storageLifetimes returns the lifetimes governing idle pairs: carbon
// storage when the platform has it (§5.3 pairs are moved off the electron),
// otherwise the electron itself.
func (c *Controller) storageLifetimes() hardware.Lifetimes {
	if c.Params.HasCarbon {
		return c.Params.Carbon
	}
	return c.Params.Electron
}

// fidelityLossTime finds the idle time after which a fresh link-pair has
// lost the given fraction of its initial fidelity (both qubits decohering
// under the storage lifetimes).
func (c *Controller) fidelityLossTime(link hardware.LinkConfig, linkF, fraction float64) sim.Duration {
	alpha, ok := link.AlphaForFidelity(c.Params, linkF)
	if !ok {
		return 0
	}
	lt := c.storageLifetimes()
	model := link.Model(c.Params, alpha)
	rho0 := model.State(quantum.PsiPlus)
	f0 := quantum.Fidelity(rho0, quantum.PsiPlus)
	target := f0 * (1 - fraction)
	aged := func(t float64) float64 {
		rho := quantum.Decohere(rho0, 0, 2, t, lt.T1, lt.T2)
		rho = quantum.Decohere(rho, 1, 2, t, lt.T1, lt.T2)
		return quantum.Fidelity(rho, quantum.PsiPlus)
	}
	lo, hi := 0.0, 1.0
	for aged(hi) > target && hi < 1e5 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if aged(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return sim.DurationFromSeconds(hi)
}

// worstCase composes the end-to-end fidelity assuming every link-pair ages
// for the full cutoff before its swap — the paper's conservative bound. With
// no cutoff the ageing interval falls back to the expected link-pair time
// (pairs wait about one generation interval for a partner on average).
func (c *Controller) worstCase(link hardware.LinkConfig, linkF float64, hops int, policy CutoffPolicy, manual sim.Duration) float64 {
	alpha, ok := link.AlphaForFidelity(c.Params, linkF)
	if !ok {
		return 0
	}
	wait := c.cutoffFor(link, linkF, policy, manual).Seconds()
	if wait <= 0 {
		if t, ok := link.ExpectedPairTime(c.Params, linkF); ok {
			wait = t.Seconds()
		}
	}
	lt := c.storageLifetimes()
	model := link.Model(c.Params, alpha)
	agedPair := func() *linalg.Matrix {
		rho := model.State(quantum.PsiPlus)
		if c.Params.HasCarbon {
			// The intermediate half is moved into carbon: two-qubit gate
			// plus carbon initialisation noise on one qubit.
			pNoise := 1 - c.Params.Gates.TwoQubitFidelity*c.Params.Gates.CarbonInitFidelity
			rho = quantum.ApplyDepolarizing1W(nil, rho, pNoise, 0, 2)
		}
		rho = quantum.Decohere(rho, 0, 2, wait, lt.T1, lt.T2)
		return quantum.Decohere(rho, 1, 2, wait, lt.T1, lt.T2)
	}
	// Deterministic composition with a fixed RNG: swap outcomes only select
	// which Bell state is declared, not how much fidelity survives, so any
	// outcome sequence gives the same worst-case number (verified in tests).
	cfg := quantum.SwapConfig{
		TwoQubitFidelity:    c.Params.Gates.TwoQubitFidelity,
		SingleQubitFidelity: c.Params.Gates.SingleQubitFidelity,
		Readout:             quantum.PerfectReadout,
	}
	if c.swapFx == nil || c.swapCfg != cfg {
		c.swapFx, c.swapCfg = quantum.NewSwapEffects(cfg), cfg
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	c.rng.Seed(1)
	cur := agedPair()
	idx := quantum.PsiPlus
	for h := 1; h < hops; h++ {
		next := agedPair()
		res := c.swapFx.Swap(nil, cur, 1, next, 0, c.rng)
		idx = quantum.Combine(idx, quantum.PsiPlus, res.Outcome)
		cur = res.Rho
	}
	return quantum.Fidelity(cur, idx)
}
