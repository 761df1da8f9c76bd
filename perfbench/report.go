package main

import (
	"fmt"
	"slices"
	"time"
)

// metric is one named measurement with its unit and the number of
// samples it rests on.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// report is what one workload run measured.
type report struct {
	ops         int // ops in the timed phase
	e2e         []metric
	layers      []metric
	info        []metric // printed for the reader, not part of the result object
	fingerprint map[string]float64
}

func (r *report) addE2E(name, unit string, v float64, n int) {
	r.e2e = append(r.e2e, metric{name, unit, v, n})
}

func (r *report) addLayer(name, unit string, v float64, n int) {
	r.layers = append(r.layers, metric{name, unit, v, n})
}

func (r *report) addInfo(name, unit string, v float64, n int) {
	r.info = append(r.info, metric{name, unit, v, n})
}

// layerNames lists every per-layer metric in the order it is printed.
// A workload that does not call a layer reports it as 0.
var layerNames = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"workload.parse_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"graph.freeze_ms", "ms"},
	{"graph.summary_ms", "ms"},
	{"steinerforest.solve_ms", "ms"},
	{"steinerforest.batch_ms", "ms"},
	{"steinerforest.batch_efficiency", "ratio"},
	{"detforest.solve_ms", "ms"},
	{"detforest.phases", "count"},
	{"detforest.merges", "count"},
	{"randforest.solve_ms", "ms"},
	{"randforest.levels", "count"},
	{"moat.certificate_ms", "ms"},
	{"steiner.verify_ms", "ms"},
	{"congest.rounds", "count"},
	{"congest.messages", "count"},
	{"congest.bits", "count"},
	{"congest.exchange_ns_per_node_round", "ns"},
	{"congest.arena_warm_ratio", "ratio"},
	{"congest.arena_warm_setup_us", "us"},
	{"congest.arena_cold_setup_us", "us"},
	{"dist.bfs_ms", "ms"},
	{"dist.bfs_rounds", "count"},
	{"dist.bellmanford_ms", "ms"},
	{"dist.bellmanford_rounds", "count"},
	{"dist.upcast_ms", "ms"},
	{"dist.upcast_rounds", "count"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_fraction", "ratio"},
	{"alloc.mallocs_per_op", "count"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.server_hit_ms", "ms"},
	{"serve.server_miss_ms", "ms"},
	{"serve.solve_ms_per_miss", "ms"},
	{"serve.queue_linger_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.collapsed", "count"},
	{"serve.mean_batch", "count"},
	{"serve.rejected", "count"},
	{"serve.evicted", "count"},
	{"serve.wasted_solve_ratio", "ratio"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p90_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.update_p50_ms", "ms"},
	{"serve.update_server_ms", "ms"},
	{"serve.update_rounds", "count"},
	{"serve.update_resolves", "count"},
	{"serve.update_patches", "count"},
	{"error_ratio", "ratio"},
	{"op.unattributed_ms", "ms"},
	{"op.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// fillLayers orders the measured layer metrics by layerNames and reports
// every layer the workload did not call as 0.
func fillLayers(measured []metric) []metric {
	byName := make(map[string]metric, len(measured))
	for _, m := range measured {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		m, ok := byName[l.name]
		if !ok {
			m = metric{Name: l.name, Unit: l.unit}
		}
		out = append(out, m)
	}
	return out
}

// addCommonE2E reports the end-to-end metrics every workload shares.
// Throughput and latency are info lines and traced-run metrics, not
// gated end-to-end metrics: on the shared host the benchmark was sized
// on, the machine's own speed moves them by 13-22% between runs of
// identical code (see run_rules in workloads.json).
func addCommonE2E(rep *report, setup time.Duration, ops int, wall time.Duration, lat []float64, mem memDelta, rounds, msgs, ratio float64) {
	for _, add := range []func(string, string, float64, int){rep.addInfo, rep.addLayer} {
		add("ops_per_s", "1/s", float64(ops)/wall.Seconds(), ops)
		add("latency_p50_ms", "ms", percentile(lat, 0.5), len(lat))
	}
	rep.addE2E("setup_s", "s", setup.Seconds(), setupRuns)
	rep.addE2E("alloc_mb_per_op", "MB", mem.allocMBPerOp, ops)
	rep.addE2E("peak_rss_mb", "MB", peakRSSMB(), 1)
	rep.addE2E("rounds_per_solve", "count", rounds, ops)
	rep.addE2E("messages_per_solve", "count", msgs, ops)
	rep.addE2E("approx_ratio", "ratio", ratio, ops)
	for _, q := range []float64{0.9, 0.99} {
		if supported(len(lat), q) {
			rep.addInfo(fmt.Sprintf("latency_p%d_ms", int(q*100)), "ms", percentile(lat, q), len(lat))
		}
	}
	rep.addInfo("cpu_ms_per_op", "ms", mem.cpuMsPerOp, ops)
	rep.addInfo("gc.cycles_per_op", "count", mem.gcPerOp, ops)
	rep.addInfo("gc.cpu_fraction", "ratio", mem.gcCPUFraction, ops)
	rep.addInfo("latency_max_ms", "ms", slices.Max(lat), len(lat))
	rep.addInfo("host.steal_share", "ratio", mem.stealShare, 1)
	rep.addInfo("error_ratio", "ratio", 0, ops)
}

// addSpanLayers reports each named span's mean duration per call.
func (r *report) addSpanLayers(sum map[string]*layerTimes, names map[string]string) {
	for _, span := range sortedKeys(names) {
		lt := sum[span]
		if lt == nil || lt.Calls == 0 {
			continue
		}
		r.addLayer(names[span], "ms", float64(lt.TotalNs)/float64(lt.Calls)/1e6, lt.Calls)
	}
}

func (r *report) addArenaLayers(ratio, warmUs, coldUs float64, n int) {
	r.addLayer("congest.arena_warm_ratio", "ratio", ratio, n)
	r.addLayer("congest.arena_warm_setup_us", "us", warmUs, n)
	r.addLayer("congest.arena_cold_setup_us", "us", coldUs, n)
}

func (r *report) addRuntimeLayers(mem memDelta) {
	r.addLayer("gc.cycles_per_op", "count", mem.gcPerOp, 1)
	r.addLayer("gc.cpu_fraction", "ratio", mem.gcCPUFraction, 1)
	r.addLayer("alloc.mallocs_per_op", "count", mem.mallocsPerOp, 1)
}

// addOpRemainders reports the unattributed remainder of the ops: op time
// minus the time its child spans cover, per op and as a share.
func (r *report) addOpRemainders(tr *tracer, root string) {
	rems := tr.opRemainders(root)
	var un, tot float64
	for _, o := range rems {
		un += float64(o.UnattributedNs)
		tot += float64(o.TotalNs)
	}
	if len(rems) == 0 || tot == 0 {
		return
	}
	r.addLayer("op.unattributed_ms", "ms", un/float64(len(rems))/1e6, len(rems))
	r.addLayer("op.unattributed_share", "ratio", un/tot, len(rems))
}
