package main

import (
	"context"
	"fmt"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
	"steinerforest/internal/graph"
	"steinerforest/internal/moat"
	"steinerforest/internal/randforest"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// sweep-sparse sizes. One op is one instance solved inside a
// SolveBatch call; every call gets its own slice of distinct instances.
const (
	sweepN        = 300
	sweepK        = 6
	sweepMaxW     = 64
	sweepBatch    = 8 // instances per SolveBatch call
	sweepPer10s   = 6 // distinct SolveBatch calls per 10 s of -seconds
	sweepPasses   = 3 // timed passes over the calls
	sweepWorkers  = 2
	sweepWarm     = 2 // instances in the untimed warm-up batch
	sweepSoloCall = 4 // calls whose instances are re-solved alone for batch_efficiency
	sweepBaseSeed = 1
)

var sweepSpec = steinerforest.Spec{Algorithm: "rand", Seed: sweepBaseSeed}

// sweepOut is what one solved instance produced.
type sweepOut struct {
	weight         int64
	rounds, levels int
	messages, bits int64
	lowerBound     float64
	forestDigest   string
}

func (o sweepOut) ratio() float64 { return float64(o.weight) / o.lowerBound }

type sweepState struct {
	instances []*steiner.Instance
	warm      []*steinerforest.Result
}

func generateSweep(cfg config, n int, tr *tracer) ([]*steiner.Instance, error) {
	list := make([]*steiner.Instance, n)
	for i := range list {
		sp := -1
		if tr != nil {
			sp = tr.begin("workload.generate", -1, -1)
		}
		gen, err := workload.Generate("planted", workload.Params{
			N: sweepN, K: sweepK, MaxW: sweepMaxW, Seed: splitmix(cfg.seed, 2, i),
		})
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", i, err)
		}
		list[i] = gen.Instance
	}
	return list, nil
}

func sweepSetup(cfg config) (sweepState, error) {
	list, err := generateSweep(cfg, cfg.scaled(sweepPer10s)*sweepBatch, nil)
	if err != nil {
		return sweepState{}, err
	}
	// The warm-up batch holds the first instances at the same batch
	// positions, so it must reproduce the timed results on them.
	warm, err := steinerforest.SolveBatch(list[:sweepWarm], sweepSpec, sweepWorkers)
	if err != nil {
		return sweepState{}, cfg.fail(-1, "warm-up batch: %v", err)
	}
	return sweepState{instances: list, warm: warm}, nil
}

// checkSweep verifies one solved instance and returns its output.
func checkSweep(cfg config, op int, ins *steiner.Instance, res *steinerforest.Result) (sweepOut, error) {
	if err := steinerforest.Verify(ins.Minimalize(), res.Solution); err != nil {
		return sweepOut{}, cfg.fail(op, "verify: %v", err)
	}
	if !(res.LowerBound > 0) || !res.Certified {
		return sweepOut{}, cfg.fail(op, "no positive certified lower bound (%v)", res.LowerBound)
	}
	return sweepOut{
		weight: res.Weight, rounds: res.Stats.Rounds, levels: res.Levels,
		messages: res.Stats.Messages, bits: res.Stats.Bits, lowerBound: res.LowerBound,
		forestDigest: digest(res.Solution),
	}, nil
}

func runSweep(cfg config) (*report, error) {
	st, setup, err := medianSetup(setupRuns, func() (sweepState, error) { return sweepSetup(cfg) }, nil)
	if err != nil {
		return nil, err
	}
	list := st.instances
	n := len(list)
	calls := n / sweepBatch
	ops := n * sweepPasses

	// The timed phase: sweepPasses passes over the calls. Every pass must
	// repeat the first pass's outputs exactly, and the first pass the
	// warm-up batch's.
	outs := make([]sweepOut, n)
	lat := make([]float64, 0, calls*sweepPasses)
	before := snapMem()
	t0 := time.Now()
	for pass := 0; pass < sweepPasses; pass++ {
		for b := 0; b < calls; b++ {
			batch := list[b*sweepBatch : (b+1)*sweepBatch]
			base := pass*n + b*sweepBatch
			ts := time.Now()
			res, err := steinerforest.SolveBatch(batch, sweepSpec, sweepWorkers)
			lat = append(lat, ms(time.Since(ts)))
			if err != nil {
				return nil, cfg.fail(base, "SolveBatch: %v", err)
			}
			for i, r := range res {
				out, err := checkSweep(cfg, base+i, batch[i], r)
				if err != nil {
					return nil, err
				}
				if pass == 0 {
					outs[b*sweepBatch+i] = out
				} else if out != outs[b*sweepBatch+i] {
					return nil, cfg.fail(base+i, "output differs from the first pass on the same instance")
				}
			}
		}
	}
	wall := time.Since(t0)
	mem := memSince(before, ops)
	for i, w := range st.warm {
		out, err := checkSweep(cfg, i, list[i], w)
		if err != nil {
			return nil, err
		}
		if out != outs[i] {
			return nil, cfg.fail(i, "output differs from the warm-up batch on the same instance")
		}
	}

	rep := &report{ops: ops}
	var rounds, msgs, bits, ratio, levels float64
	for _, o := range outs {
		rounds += float64(o.rounds)
		msgs += float64(o.messages)
		bits += float64(o.bits)
		ratio += o.ratio()
		levels += float64(o.levels)
	}
	nf := float64(n)
	rep.fingerprint = map[string]float64{
		"rounds_per_solve": rounds / nf, "messages_per_solve": msgs / nf,
		"bits_per_solve": bits / nf, "approx_ratio": ratio / nf,
	}
	addCommonE2E(rep, setup, ops, wall, lat, mem, rounds/nf, msgs/nf, ratio/nf)
	if !cfg.trace {
		return rep, nil
	}

	// The traced run: one more pass over the calls, on freshly generated
	// copies of the instances, through SolveBatchSlots with a slot
	// function that makes the calls Solve makes, each in its own span.
	tr := newTracer()
	fresh, err := generateSweep(cfg, n, tr)
	if err != nil {
		return nil, err
	}
	var batchWalls []float64
	t1 := time.Now()
	for b := 0; b < calls; b++ {
		batch := fresh[b*sweepBatch : (b+1)*sweepBatch]
		specs := make([]steinerforest.Spec, len(batch))
		for i := range specs {
			specs[i] = sweepSpec
			specs[i].Seed = steinerforest.BatchSeed(sweepSpec.Seed, i)
		}
		bs := tr.begin("steinerforest.batch", b, -1)
		slots, err := steinerforest.SolveBatchSlots(batch, specs, nil, sweepWorkers,
			func(_ context.Context, slot int, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
				return solveRandTraced(tr, b*sweepBatch+slot, bs, ins, spec)
			})
		tr.end(bs)
		batchWalls = append(batchWalls, float64(tr.duration(bs)))
		if err != nil {
			return nil, cfg.fail(b*sweepBatch, "SolveBatchSlots: %v", err)
		}
		for i, s := range slots {
			op := b*sweepBatch + i
			if s.Err != nil {
				return nil, cfg.fail(op, "traced slot: %v", s.Err)
			}
			out, err := checkSweep(cfg, op, batch[i], s.Res)
			if err != nil {
				return nil, err
			}
			if out != outs[op] {
				return nil, cfg.fail(op, "traced split (randforest.Solve + moat.SolveAKR) differs from SolveBatch")
			}
		}
	}
	twall := time.Since(t1)

	// batch_efficiency: the first calls' instances solved one at a time,
	// against the workers' share of those calls' batch wall time.
	var solo, batchSum float64
	for b := 0; b < min(sweepSoloCall, len(batchWalls)); b++ {
		for i, ins := range list[b*sweepBatch : (b+1)*sweepBatch] {
			spec := sweepSpec
			spec.Seed = steinerforest.BatchSeed(sweepSpec.Seed, i)
			ts := time.Now()
			if _, err := steinerforest.Solve(ins, spec); err != nil {
				return nil, cfg.fail(b*sweepBatch+i, "solo solve: %v", err)
			}
			solo += float64(time.Since(ts))
		}
		batchSum += batchWalls[b]
	}

	if err := tr.write(traceFile(cfg), cfg.workload, cfg.seed, "op"); err != nil {
		return nil, err
	}
	var graphs []*graph.Graph
	var terminals [][]bool
	for _, ins := range fresh[:min(engineGraphs, len(fresh))] {
		graphs, terminals = append(graphs, ins.G), append(terminals, isTerminal(ins))
	}
	eng, err := measureEngine(graphs, terminals)
	if err != nil {
		return nil, err
	}
	rep.addSpanLayers(tr.summarize(), map[string]string{
		"workload.generate": "workload.generate_ms", "steinerforest.batch": "steinerforest.batch_ms",
		"steinerforest.solve": "steinerforest.solve_ms", "randforest.solve": "randforest.solve_ms",
		"moat.certificate": "moat.certificate_ms", "steiner.verify": "steiner.verify_ms",
	})
	rep.addLayer("steinerforest.batch_efficiency", "ratio", solo/(sweepWorkers*batchSum), min(sweepSoloCall, len(batchWalls)))
	rep.addLayer("randforest.levels", "count", levels/nf, n)
	rep.addLayer("congest.rounds", "count", rounds/nf, n)
	rep.addLayer("congest.messages", "count", msgs/nf, n)
	rep.addLayer("congest.bits", "count", bits/nf, n)
	rep.addEngineLayers(eng)
	rep.addArenaLayers(eng.arenaWarmRatio, eng.warmSetupUs, eng.coldSetupUs, eng.samples)
	rep.addRuntimeLayers(mem)
	rep.addOpRemainders(tr, "op")
	rep.addLayer("trace.overhead_ratio", "ratio", float64(twall)*sweepPasses/float64(wall), n)
	rep.addLayer("error_ratio", "ratio", 0, ops)
	return rep, nil
}

// solveRandTraced is one traced batch slot: the calls Solve makes for
// Spec{rand, seed} — randforest.Solve, then the moat.SolveAKR
// certificate — and Verify, each in its own span under the slot's op.
func solveRandTraced(tr *tracer, op, parent int, ins *steiner.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
	root := tr.begin("op", op, parent)
	defer tr.end(root)
	solve := tr.begin("steinerforest.solve", op, root)
	sp := tr.begin("randforest.solve", op, solve)
	r, err := randforest.Solve(ins, randforest.ModeFull, congest.WithSeed(spec.Seed))
	tr.end(sp)
	if err != nil {
		tr.end(solve)
		return nil, err
	}
	sp = tr.begin("moat.certificate", op, solve)
	oracle, err := moat.SolveAKR(ins)
	tr.end(sp)
	tr.end(solve)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("steiner.verify", op, root)
	err = steiner.Verify(ins.Minimalize(), r.Solution)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &steinerforest.Result{
		Solution: r.Solution, Weight: r.Solution.Weight(ins.G), Stats: r.Stats, Levels: r.Levels,
		LowerBound: oracle.DualSum.Float(), Certified: true, Algorithm: spec.Algorithm,
	}, nil
}
