package main

import (
	"bytes"
	"fmt"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/detforest"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// dsfrun-dense sizes. One op repeats `dsfrun -in <file> -algo det`:
// parse, solve with the certificate, the s/D summary line, Verify.
const (
	denseN        = 300
	denseK        = 6
	denseMaxW     = 64
	densePer10s   = 84 // ops (distinct instances) per 10 s of -seconds
	denseWarmOps  = 2
	denseSimSeed  = 1 // dsfrun's default -seed, which -in leaves to the solver
	detRatioLimit = 2.0
)

// denseOut is what one pipeline produced.
type denseOut struct {
	weight, edges  int64
	rounds         int
	messages, bits int64
	lowerBound     float64
	s, d           int
	phases, merges int
	forestDigest   string
}

func (o denseOut) ratio() float64 { return float64(o.weight) / o.lowerBound }

// same reports whether two pipelines on one instance agree exactly.
func (o denseOut) same(p denseOut) bool {
	return o.weight == p.weight && o.edges == p.edges && o.rounds == p.rounds &&
		o.messages == p.messages && o.bits == p.bits && o.lowerBound == p.lowerBound &&
		o.s == p.s && o.d == p.d && o.forestDigest == p.forestDigest
}

// denseState is what set-up leaves for the timed phase: the serialized
// instances and the outputs of the warm-up ops on the first of them.
type denseState struct {
	texts [][]byte
	warm  []denseOut
}

// denseSetup generates the instance list and serializes it the way
// `dsfrun -out` would, then runs the untimed warm-up ops.
func denseSetup(cfg config) (denseState, error) {
	texts := make([][]byte, cfg.scaled(densePer10s))
	for i := range texts {
		gen, err := generateDense(cfg, i)
		if err != nil {
			return denseState{}, fmt.Errorf("generate instance %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := workload.WriteInstance(&buf, gen.Instance, workload.FormatText); err != nil {
			return denseState{}, fmt.Errorf("serialize instance %d: %w", i, err)
		}
		texts[i] = buf.Bytes()
	}
	st := denseState{texts: texts}
	for i := 0; i < min(denseWarmOps, len(texts)); i++ {
		out, err := densePipeline(cfg, -1-i, texts[i])
		if err != nil {
			return denseState{}, err
		}
		st.warm = append(st.warm, out)
	}
	return st, nil
}

// generateDense generates the i-th instance of the list.
func generateDense(cfg config, i int) (*workload.Generated, error) {
	return workload.Generate("geometric", workload.Params{
		N: denseN, K: denseK, MaxW: denseMaxW, Seed: splitmix(cfg.seed, 1, i),
	})
}

// densePipeline is one untraced op: exactly the calls dsfrun makes.
func densePipeline(cfg config, op int, text []byte) (denseOut, error) {
	ins, err := workload.ReadInstance(bytes.NewReader(text))
	if err != nil {
		return denseOut{}, cfg.fail(op, "parse: %v", err)
	}
	res, err := steinerforest.Solve(ins, steinerforest.Spec{Algorithm: "det", Seed: denseSimSeed})
	if err != nil {
		return denseOut{}, cfg.fail(op, "solve: %v", err)
	}
	out := denseOut{
		weight: res.Weight, edges: int64(res.Solution.Size()), rounds: res.Stats.Rounds,
		messages: res.Stats.Messages, bits: res.Stats.Bits, lowerBound: res.LowerBound,
		s: ins.G.ShortestPathDiameter(), d: ins.G.Diameter(),
		phases: res.Phases, merges: res.Merges, forestDigest: digest(res.Solution),
	}
	if err := steinerforest.Verify(ins.Minimalize(), res.Solution); err != nil {
		return out, cfg.fail(op, "verify: %v", err)
	}
	return out, checkDet(cfg, op, out)
}

// checkDet holds det's certified ratio to its 2-approximation guarantee.
func checkDet(cfg config, op int, out denseOut) error {
	if !(out.lowerBound > 0) {
		return cfg.fail(op, "no positive certified lower bound (%v)", out.lowerBound)
	}
	if r := out.ratio(); r > detRatioLimit {
		return cfg.fail(op, "det certified ratio %.6f exceeds %v", r, detRatioLimit)
	}
	return nil
}

// digest names a forest by its sorted selected edge indices.
func digest(s *steiner.Solution) string {
	return fmt.Sprintf("%x", s.Edges())
}

func runDense(cfg config) (*report, error) {
	st, setup, err := medianSetup(setupRuns, func() (denseState, error) { return denseSetup(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	texts := st.texts
	ops := len(texts)

	// The timed phase: one op per instance. The warm-up ops ran the first
	// instances already; their outputs must repeat exactly.
	first := make([]denseOut, ops)
	lat := make([]float64, 0, ops)
	before := snapMem()
	t0 := time.Now()
	for op, text := range texts {
		ts := time.Now()
		out, err := densePipeline(cfg, op, text)
		lat = append(lat, ms(time.Since(ts)))
		if err != nil {
			return nil, err
		}
		first[op] = out
	}
	wall := time.Since(t0)
	mem := memSince(before, ops)
	for i, w := range st.warm {
		if !w.same(first[i]) {
			return nil, cfg.fail(i, "output differs from the warm-up op on the same instance")
		}
	}

	rep := &report{ops: ops}
	var rounds, msgs, ratio float64
	var bits, phases, merges float64
	for _, o := range first {
		rounds += float64(o.rounds)
		msgs += float64(o.messages)
		bits += float64(o.bits)
		ratio += o.ratio()
		phases += float64(o.phases)
		merges += float64(o.merges)
	}
	nl := float64(len(first))
	rep.fingerprint = map[string]float64{
		"rounds_per_solve": rounds / nl, "messages_per_solve": msgs / nl,
		"bits_per_solve": bits / nl, "approx_ratio": ratio / nl,
	}
	addCommonE2E(rep, setup, ops, wall, lat, mem, rounds/nl, msgs/nl, ratio/nl)
	if !cfg.trace {
		return rep, nil
	}

	// The traced run: the same ops again with every call into a layer
	// wrapped in a span, Solve split into the two calls it makes.
	tr := newTracer()
	for i := range texts {
		sp := tr.begin("workload.generate", -1, -1)
		_, err := generateDense(cfg, i)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", i, err)
		}
	}
	t1 := time.Now()
	var graphs []*graph.Graph
	var terminals [][]bool
	for op, text := range texts {
		out, ins, err := densePipelineTraced(cfg, tr, op, text)
		if err != nil {
			return nil, err
		}
		if !out.same(first[op]) {
			return nil, cfg.fail(op, "traced split (detforest.Solve + moat.SolveAKR) differs from Solve")
		}
		if op < engineGraphs {
			graphs, terminals = append(graphs, ins.G), append(terminals, isTerminal(ins))
		}
	}
	twall := time.Since(t1)

	if err := tr.write(traceFile(cfg), cfg.workload, cfg.seed, "op"); err != nil {
		return nil, err
	}
	eng, err := measureEngine(graphs, terminals)
	if err != nil {
		return nil, err
	}
	sum := tr.summarize()
	rep.addSpanLayers(sum, map[string]string{
		"workload.parse": "workload.parse_ms", "workload.generate": "workload.generate_ms",
		"graph.freeze": "graph.freeze_ms", "graph.summary": "graph.summary_ms",
		"steinerforest.solve": "steinerforest.solve_ms", "detforest.solve": "detforest.solve_ms",
		"moat.certificate": "moat.certificate_ms", "steiner.verify": "steiner.verify_ms",
	})
	rep.addLayer("detforest.phases", "count", phases/nl, len(first))
	rep.addLayer("detforest.merges", "count", merges/nl, len(first))
	rep.addLayer("congest.rounds", "count", rounds/nl, len(first))
	rep.addLayer("congest.messages", "count", msgs/nl, len(first))
	rep.addLayer("congest.bits", "count", bits/nl, len(first))
	rep.addEngineLayers(eng)
	rep.addArenaLayers(eng.arenaWarmRatio, eng.warmSetupUs, eng.coldSetupUs, eng.samples)
	rep.addRuntimeLayers(mem)
	rep.addOpRemainders(tr, "op")
	rep.addLayer("trace.overhead_ratio", "ratio", float64(twall)/float64(wall), ops)
	rep.addLayer("error_ratio", "ratio", 0, ops)
	return rep, nil
}

// densePipelineTraced is one traced op. It calls what Solve calls —
// detforest.Solve with the options Spec{det, seed} translates to, then the
// moat.SolveAKR certificate — so each gets its own span, and it freezes
// the graph explicitly so CSR compaction is not charged to the solver.
func densePipelineTraced(cfg config, tr *tracer, op int, text []byte) (denseOut, *steiner.Instance, error) {
	root := tr.begin("op", op, -1)
	defer tr.end(root)

	sp := tr.begin("workload.parse", op, root)
	ins, err := workload.ReadInstance(bytes.NewReader(text))
	tr.end(sp)
	if err != nil {
		return denseOut{}, nil, cfg.fail(op, "parse: %v", err)
	}
	sp = tr.begin("graph.freeze", op, root)
	ins.G.Freeze()
	tr.end(sp)

	solve := tr.begin("steinerforest.solve", op, root)
	sp = tr.begin("detforest.solve", op, solve)
	r, err := detforest.Solve(ins, congest.WithSeed(denseSimSeed))
	tr.end(sp)
	if err != nil {
		tr.end(solve)
		return denseOut{}, nil, cfg.fail(op, "detforest.Solve: %v", err)
	}
	sp = tr.begin("moat.certificate", op, solve)
	oracle, err := moat.SolveAKR(ins)
	tr.end(sp)
	tr.end(solve)
	if err != nil {
		return denseOut{}, nil, cfg.fail(op, "moat.SolveAKR: %v", err)
	}

	sp = tr.begin("graph.summary", op, root)
	s, d := ins.G.ShortestPathDiameter(), ins.G.Diameter()
	tr.end(sp)

	out := denseOut{
		weight: r.Solution.Weight(ins.G), edges: int64(r.Solution.Size()), rounds: r.Stats.Rounds,
		messages: r.Stats.Messages, bits: r.Stats.Bits, lowerBound: oracle.DualSum.Float(),
		s: s, d: d, phases: r.Phases, merges: r.Merges, forestDigest: digest(r.Solution),
	}
	sp = tr.begin("steiner.verify", op, root)
	err = steiner.Verify(ins.Minimalize(), r.Solution)
	tr.end(sp)
	if err != nil {
		return out, ins, cfg.fail(op, "verify: %v", err)
	}
	return out, ins, checkDet(cfg, op, out)
}

func isTerminal(ins *steiner.Instance) []bool {
	t := make([]bool, ins.G.N())
	for _, v := range ins.Terminals() {
		t[v] = true
	}
	return t
}
