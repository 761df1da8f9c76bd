package main

import (
	"fmt"
	"time"

	"steinerforest/internal/congest"
	"steinerforest/internal/dist"
	"steinerforest/internal/graph"
)

// Wire kinds of the benchmark's own node programs (100+ is the range
// congest reserves for tests and benchmarks).
const (
	kindExchange uint16 = 200
	kindItem     uint16 = 201
)

func init() {
	congest.RegisterWireKind(kindExchange, 2)
	congest.RegisterWireKind(kindItem, 2+32)
}

const (
	exchangeRounds = 16 // rounds the exchange program floods
	engineGraphs   = 4  // workload graphs the node programs run on
	engineReps     = 3  // runs of each program per graph
)

// engineCosts is what the benchmark-owned node programs measured on one
// workload's graphs: the engine's per-node-round exchange cost, the dist
// primitives' time and rounds, and the arena pool's warm and cold set-up.
type engineCosts struct {
	exchangeNsPerNodeRound                   float64
	bfsMs, bfMs, upcastMs                    float64
	bfsRounds, bfRounds, upcastRounds        float64
	arenaWarmRatio, warmSetupUs, coldSetupUs float64
	samples                                  int
}

// measureEngine runs the benchmark's node programs engineReps times on
// each graph and returns medians of the times and means of the rounds.
// Each graph gets one arena pool, so its first run is cold and the rest
// are warm.
func measureEngine(graphs []*graph.Graph, sources [][]bool) (engineCosts, error) {
	var exch, bfs, bf, up []float64
	var bfsR, bfR, upR []float64
	var warm, cold, warmNs, coldNs float64
	for gi, g := range graphs {
		pool := congest.NewArenaPool()
		src := sources[gi]
		for r := 0; r < engineReps; r++ {
			t0 := time.Now()
			if _, err := congest.Run(g, exchangeProgram, congest.WithArenaPool(pool)); err != nil {
				return engineCosts{}, fmt.Errorf("exchange program: %w", err)
			}
			exch = append(exch, float64(time.Since(t0))/float64(g.N()*exchangeRounds))

			t0 = time.Now()
			st, err := congest.Run(g, func(h *congest.Host) { dist.BuildBFS(h) }, congest.WithArenaPool(pool))
			if err != nil {
				return engineCosts{}, fmt.Errorf("bfs program: %w", err)
			}
			bfs = append(bfs, ms(time.Since(t0)))
			bfsR = append(bfsR, float64(st.Rounds))

			// The Bellman-Ford and upcast programs build their BFS tree
			// first; their times include it and their rounds do not.
			var phaseRounds int
			t0 = time.Now()
			_, err = congest.Run(g, func(h *congest.Host) {
				tr := dist.BuildBFS(h)
				r0 := h.Round()
				dist.BellmanFord(h, tr, dist.BFConfig{IsSource: src[h.ID()], SourceID: h.ID()})
				if h.ID() == 0 {
					phaseRounds = h.Round() - r0
				}
			}, congest.WithArenaPool(pool))
			if err != nil {
				return engineCosts{}, fmt.Errorf("bellman-ford program: %w", err)
			}
			bf = append(bf, ms(time.Since(t0)))
			bfR = append(bfR, float64(phaseRounds))

			t0 = time.Now()
			_, err = congest.Run(g, func(h *congest.Host) {
				tr := dist.BuildBFS(h)
				r0 := h.Round()
				local := []congest.Wire{{Kind: kindItem, C: int64(h.ID())}}
				dist.UpcastBroadcast(h, tr, local, itemCmp, nil, nil)
				if h.ID() == 0 {
					phaseRounds = h.Round() - r0
				}
			}, congest.WithArenaPool(pool))
			if err != nil {
				return engineCosts{}, fmt.Errorf("upcast program: %w", err)
			}
			up = append(up, ms(time.Since(t0)))
			upR = append(upR, float64(phaseRounds))
		}
		ps := pool.Stats()
		warm += float64(ps.WarmGets)
		cold += float64(ps.ColdGets)
		warmNs += float64(ps.WarmSetupNs)
		coldNs += float64(ps.ColdSetupNs)
	}
	c := engineCosts{
		exchangeNsPerNodeRound: percentile(exch, 0.5),
		bfsMs:                  percentile(bfs, 0.5),
		bfMs:                   percentile(bf, 0.5),
		upcastMs:               percentile(up, 0.5),
		bfsRounds:              mean(bfsR),
		bfRounds:               mean(bfR),
		upcastRounds:           mean(upR),
		samples:                len(exch),
	}
	c.arenaWarmRatio, c.warmSetupUs, c.coldSetupUs = arenaFigures(warm, cold, warmNs, coldNs)
	return c, nil
}

// arenaFigures turns pool counters into the warm share of acquisitions
// and the mean set-up microseconds on each side.
func arenaFigures(warm, cold, warmNs, coldNs float64) (ratio, warmUs, coldUs float64) {
	if warm+cold > 0 {
		ratio = warm / (warm + cold)
	}
	if warm > 0 {
		warmUs = warmNs / warm / 1e3
	}
	if cold > 0 {
		coldUs = coldNs / cold / 1e3
	}
	return ratio, warmUs, coldUs
}

// exchangeProgram sends one wire message on every port in each of
// exchangeRounds rounds: the engine's full-load routing path.
func exchangeProgram(h *congest.Host) {
	out := make([]congest.Send, h.Degree())
	for p := range out {
		out[p] = congest.Send{Port: p, Wire: congest.Wire{Kind: kindExchange}}
	}
	for r := 0; r < exchangeRounds; r++ {
		h.Exchange(out)
	}
}

func itemCmp(a, b congest.Wire) int {
	switch {
	case a.C < b.C:
		return -1
	case a.C > b.C:
		return 1
	}
	return 0
}

// addEngineLayers reports the node-program measurements as layer metrics.
func (r *report) addEngineLayers(c engineCosts) {
	r.addLayer("congest.exchange_ns_per_node_round", "ns", c.exchangeNsPerNodeRound, c.samples)
	r.addLayer("dist.bfs_ms", "ms", c.bfsMs, c.samples)
	r.addLayer("dist.bfs_rounds", "count", c.bfsRounds, c.samples)
	r.addLayer("dist.bellmanford_ms", "ms", c.bfMs, c.samples)
	r.addLayer("dist.bellmanford_rounds", "count", c.bfRounds, c.samples)
	r.addLayer("dist.upcast_ms", "ms", c.upcastMs, c.samples)
	r.addLayer("dist.upcast_rounds", "count", c.upcastRounds, c.samples)
}
