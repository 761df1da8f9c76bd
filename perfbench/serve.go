package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/graph"
	"steinerforest/internal/serve"
	"steinerforest/internal/steiner"
	"steinerforest/internal/workload"
)

// serve-rw sizes. Two callers drive an in-process server closed-loop,
// each on its own resident instance: caller A mixes Zipf-skewed solves
// with a demand update every serveUpdateEvery requests, caller B only
// solves. An op is one answered request.
const (
	serveFamily      = "roadmesh"
	serveN           = 200
	serveK           = 6
	serveMaxW        = 64
	servePer10s      = 380 // lockstep steps (one request per caller) per 10 s of -seconds
	serveUpdateEvery = 25
	serveWarmSolves  = 8 // untimed solves per caller after the bootstrap update
	serveUpdateAlgo  = "det"
)

// Zipf shapes of the two callers' spec draws. A's cache is emptied by
// every update, so a steep head gives it about three quarters hits
// between updates; B's cache is never emptied, so its draws come from a
// long tail that keeps adding new specs.
var (
	zipfA = zipfShape{s: 2.0, v: 1, imax: 63}
	zipfB = zipfShape{s: 1.1, v: 1, imax: 1023}
)

type zipfShape struct {
	s, v float64
	imax uint64
}

// specOf maps a Zipf key to a solve spec: even keys det, odd keys rand,
// each with its own simulation seed.
func specOf(k uint64) serve.SolveRequest {
	alg := "det"
	if k%2 == 1 {
		alg = "rand"
	}
	return serve.SolveRequest{Algorithm: alg, Seed: int64(k/2) + 1}
}

// reqKind classifies an answered request.
type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindUpdate
)

// serveRec is one answered request as the client saw it.
type serveRec struct {
	caller   int
	kind     reqKind
	clientMs float64
	serverMs float64
	version  int // demand version of the caller's instance when answered
	req      serve.SolveRequest
	solve    serve.SolveResponse
	update   serve.DemandUpdateResponse
}

// serveState is a running server with its two resident instances.
type serveState struct {
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	ins    [2]*steiner.Instance
	names  [2]string
	// demands and versions track caller A's instance: versions[v] is the
	// demand set after v updates (v = 0 is the registered instance).
	demands  *steinerforest.DemandSet
	versions []*steinerforest.DemandSet
	pairRng  *rand.Rand
	lastAdd  [2]int
	hasAdd   bool
	zipf     [2]*rand.Zipf
}

func (st *serveState) close() {
	if st == nil || st.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx) // an error here only means idle connections were cut
	<-st.done
	st.srv.Shutdown()
	st.client.CloseIdleConnections()
}

// serveSetup starts the server on a loopback listener, generates and
// registers both instances, bootstraps A's standing forest with its first
// update, and runs the untimed warm-up solves.
func serveSetup(cfg config, tr *tracer) (*serveState, error) {
	st := &serveState{
		srv:     serve.New(serve.Config{Policy: "repair"}),
		done:    make(chan struct{}),
		names:   [2]string{"a", "b"},
		pairRng: rand.New(rand.NewSource(splitmix(cfg.seed, 3, 0))),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() {
		defer close(st.done)
		st.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	for i := range st.ins {
		sp := -1
		if tr != nil {
			sp = tr.begin("workload.generate", -1, -1)
		}
		gen, err := workload.Generate(serveFamily, workload.Params{
			N: serveN, K: serveK, MaxW: serveMaxW, Seed: splitmix(cfg.seed, 4, i),
		})
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("generate instance %s: %w", st.names[i], err)
		}
		if err := st.srv.RegisterInstance(st.names[i], gen.Instance, serveFamily); err != nil {
			st.close()
			return nil, err
		}
		st.ins[i] = gen.Instance
		st.zipf[i] = newZipf(cfg.seed, i)
	}
	st.demands = demandsOf(st.ins[0])
	st.versions = []*steinerforest.DemandSet{st.demands.Clone()}

	if _, err := st.update(cfg, -1); err != nil {
		st.close()
		return nil, err
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < serveWarmSolves; i++ {
			if _, err := st.solve(cfg, c, -1-i); err != nil {
				st.close()
				return nil, err
			}
		}
	}
	return st, nil
}

func newZipf(seed int64, caller int) *rand.Zipf {
	z := zipfA
	if caller == 1 {
		z = zipfB
	}
	return rand.NewZipf(rand.New(rand.NewSource(splitmix(seed, 5, caller))), z.s, z.v, z.imax)
}

// demandsOf rebuilds the pair multiset the server derives from a
// registered instance: star pairs from each component's smallest member.
func demandsOf(ins *steiner.Instance) *steinerforest.DemandSet {
	ds := steinerforest.NewDemandSet(ins.G)
	comps := ins.Components()
	labels := make([]int, 0, len(comps))
	for l := range comps {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	for _, l := range labels {
		for _, v := range comps[l][1:] {
			ds.Add(comps[l][0], v) // members are distinct nodes of the graph
		}
	}
	return ds
}

// post sends one JSON request and decodes a 200 answer into out.
func (st *serveState) post(path string, body, out any) (time.Duration, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := st.client.Post(st.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return d, json.Unmarshal(data, out)
}

// solve sends caller c's next Zipf-drawn solve.
func (st *serveState) solve(cfg config, c, op int) (serveRec, error) {
	req := specOf(st.zipf[c].Uint64())
	rec := serveRec{caller: c, req: req, kind: kindMiss}
	if c == 0 {
		rec.version = len(st.versions) - 1
	}
	d, err := st.post("/v1/instances/"+st.names[c]+"/solve", req, &rec.solve)
	if err != nil {
		return rec, cfg.fail(op, "caller %s solve %+v: %v", st.names[c], req, err)
	}
	rec.clientMs, rec.serverMs = ms(d), rec.solve.ElapsedMS
	if rec.solve.Cached {
		rec.kind = kindHit
	}
	return rec, nil
}

// update swaps one demand pair of instance A: it retires the pair the
// previous update added and adds a fresh random pair, so every update
// does the same work (a removal's path swap, then an add's delta solve
// and path swap) and the demand count stays constant.
func (st *serveState) update(cfg config, op int) (serveRec, error) {
	n := st.ins[0].G.N()
	u := st.pairRng.Intn(n)
	v := (u + 1 + st.pairRng.Intn(n-1)) % n
	var events []serve.DemandEvent
	if st.hasAdd {
		events = append(events, serve.DemandEvent{Op: "remove", U: st.lastAdd[0], V: st.lastAdd[1]})
	}
	events = append(events, serve.DemandEvent{Op: "add", U: u, V: v})
	body := serve.DemandUpdateRequest{Events: events, Algorithm: serveUpdateAlgo}
	rec := serveRec{caller: 0, kind: kindUpdate}
	d, err := st.post("/v1/instances/"+st.names[0]+"/demands", body, &rec.update)
	if err != nil {
		return rec, cfg.fail(op, "update %+v: %v", events, err)
	}
	if st.hasAdd {
		if err := st.demands.Remove(st.lastAdd[0], st.lastAdd[1]); err != nil {
			return rec, cfg.fail(op, "client demand replay: %v", err)
		}
	}
	if err := st.demands.Add(u, v); err != nil {
		return rec, cfg.fail(op, "client demand replay: %v", err)
	}
	st.lastAdd, st.hasAdd = [2]int{u, v}, true
	st.versions = append(st.versions, st.demands.Clone())
	rec.version = len(st.versions) - 1
	rec.clientMs, rec.serverMs = ms(d), rec.update.ElapsedMS
	if len(rec.update.Events) != len(events) || rec.update.Pairs != st.demands.Len() {
		return rec, cfg.fail(op, "update answered %d events and %d pairs, want %d and %d",
			len(rec.update.Events), rec.update.Pairs, len(events), st.demands.Len())
	}
	return rec, nil
}

// servePhase runs both callers in lockstep steps: in each step caller A
// and caller B send one request each and wait for their replies, and the
// next step starts when both are answered. The loop is closed, and
// because the two requests of a step reach the server together, which
// misses share a batch does not depend on timing. It returns every
// answered request, caller A's first, each caller's in order.
func servePhase(cfg config, st *serveState, tr *tracer) ([]serveRec, time.Duration, error) {
	steps := cfg.scaled(servePer10s)
	recs := [2][]serveRec{make([]serveRec, 0, steps), make([]serveRec, 0, steps)}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		var errs [2]error
		var step [2]serveRec
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				op := c*steps + i
				var start int64
				if tr != nil {
					start = tr.now()
				}
				if c == 0 && (i+1)%serveUpdateEvery == 0 {
					step[c], errs[c] = st.update(cfg, op)
				} else {
					step[c], errs[c] = st.solve(cfg, c, op)
				}
				if tr != nil && errs[c] == nil {
					end := tr.now()
					root := tr.add("op", op, -1, start, end)
					// Only the length of the server's part is known; it
					// is placed at the op's start.
					tr.add("serve.server", op, root, start, min(end, start+int64(step[c].serverMs*1e6)))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs[0], errs[1]); err != nil {
			return nil, time.Since(t0), err
		}
		recs[0] = append(recs[0], step[0])
		recs[1] = append(recs[1], step[1])
	}
	return append(recs[0], recs[1]...), time.Since(t0), nil
}

// solveKey identifies one reference solve: instance, demand version, spec.
type solveKey struct {
	caller, version int
	req             serve.SolveRequest
}

// checkServe compares every solve answer with a standalone Solve of the
// same spec on that instance's demand set at the time of the answer.
func checkServe(cfg config, st *serveState, recs []serveRec) error {
	type refOut struct {
		res *steinerforest.Result
		err error
	}
	keys := map[solveKey]int{}
	var order []solveKey
	for i, r := range recs {
		if r.kind == kindUpdate {
			continue
		}
		k := solveKey{r.caller, r.version, r.req}
		if _, ok := keys[k]; !ok {
			keys[k] = i
			order = append(order, k)
		}
	}
	refs := make([]refOut, len(order))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := order[i]
				ins := st.ins[k.caller]
				if k.caller == 0 && k.version > 0 {
					ins = st.versions[k.version].Instance()
				}
				spec, err := k.req.Spec()
				if err != nil {
					refs[i] = refOut{err: err}
					continue
				}
				res, err := steinerforest.Solve(ins, spec)
				if err == nil {
					err = steinerforest.Verify(ins.Minimalize(), res.Solution)
				}
				refs[i] = refOut{res, err}
			}
		}()
	}
	for i := range order {
		next <- i
	}
	close(next)
	wg.Wait()
	ref := make(map[solveKey]refOut, len(order))
	for i, k := range order {
		ref[k] = refs[i]
	}
	for op, r := range recs {
		if r.kind == kindUpdate {
			continue
		}
		want := ref[solveKey{r.caller, r.version, r.req}]
		if want.err != nil {
			return cfg.fail(op, "reference solve: %v", want.err)
		}
		got, w := r.solve, want.res
		if got.Weight != w.Weight || got.Edges != w.Solution.Size() || got.Rounds != w.Stats.Rounds ||
			got.Messages != w.Stats.Messages || got.Bits != w.Stats.Bits {
			return cfg.fail(op, "caller %s %+v (demand version %d): answered weight %d edges %d rounds %d messages %d bits %d, standalone Solve gives %d %d %d %d %d",
				st.names[r.caller], r.req, r.version, got.Weight, got.Edges, got.Rounds, got.Messages, got.Bits,
				w.Weight, w.Solution.Size(), w.Stats.Rounds, w.Stats.Messages, w.Stats.Bits)
		}
		if !(got.LowerBound > 0) || !got.Certified {
			return cfg.fail(op, "answer carries no positive certified lower bound")
		}
	}
	return nil
}

// sameAnswer compares the solver-determined fields of two answers.
func sameAnswer(a, b serve.SolveResponse) bool {
	return a.Weight == b.Weight && a.Edges == b.Edges && a.Rounds == b.Rounds &&
		a.Messages == b.Messages && a.Bits == b.Bits && a.LowerBound == b.LowerBound
}

// serveSummary is what one phase's records add up to.
type serveSummary struct {
	hits, misses, updates    []serveRec
	resolves, patches        int
	updateRounds             float64
	rounds, msgs, bits, rsum float64
}

func summarizeServe(recs []serveRec) serveSummary {
	var s serveSummary
	for _, r := range recs {
		switch r.kind {
		case kindHit:
			s.hits = append(s.hits, r)
		case kindMiss:
			s.misses = append(s.misses, r)
			s.rounds += float64(r.solve.Rounds)
			s.msgs += float64(r.solve.Messages)
			s.bits += float64(r.solve.Bits)
			s.rsum += float64(r.solve.Weight) / r.solve.LowerBound
		case kindUpdate:
			s.updates = append(s.updates, r)
			for _, ev := range r.update.Events {
				if ev.Resolved {
					s.resolves++
				}
				if ev.Patched {
					s.patches++
				}
				s.updateRounds += float64(ev.Rounds)
			}
		}
	}
	return s
}

func clientMs(rs []serveRec) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.clientMs
	}
	return out
}

func serverMs(rs []serveRec) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.serverMs
	}
	return out
}

func runServe(cfg config) (*report, error) {
	st, setup, err := medianSetup(setupRuns, func() (*serveState, error) { return serveSetup(cfg, nil) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	rep, phase, err := serveTimed(cfg, st, setup)
	st.close()
	if err != nil {
		return nil, err
	}
	if err := checkServe(cfg, st, phase.recs); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}

	// The traced run: a fresh server and the same request sequence, each
	// request an op span with the server-reported part as its child.
	tr := newTracer()
	tst, err := serveSetup(cfg, tr)
	if err != nil {
		return nil, err
	}
	trecs, twall, err := servePhase(cfg, tst, tr)
	tst.close()
	if err != nil {
		return nil, err
	}
	// The same callers on the same seed must get the same answers.
	if len(trecs) != len(phase.recs) {
		return nil, cfg.fail(len(trecs), "traced run answered %d requests, untraced %d", len(trecs), len(phase.recs))
	}
	for op, r := range trecs {
		u := phase.recs[op]
		if r.kind != u.kind || r.req != u.req || r.version != u.version || !sameAnswer(r.solve, u.solve) {
			return nil, cfg.fail(op, "traced run's answer differs from the untraced run's")
		}
	}
	if err := tr.write(traceFile(cfg), cfg.workload, cfg.seed, "op"); err != nil {
		return nil, err
	}
	graphs := []*graph.Graph{st.ins[0].G, st.ins[1].G}
	eng, err := measureEngine(graphs, [][]bool{isTerminal(st.ins[0]), isTerminal(st.ins[1])})
	if err != nil {
		return nil, err
	}
	rep.addServeLayers(phase)
	rep.addEngineLayers(eng)
	rep.addRuntimeLayers(phase.mem)
	rep.addSpanLayers(tr.summarize(), map[string]string{"workload.generate": "workload.generate_ms"})
	rep.addOpRemainders(tr, "op")
	rep.addLayer("trace.overhead_ratio", "ratio", float64(twall)/float64(phase.wall), len(trecs))
	return rep, nil
}

// servePhaseResult is the untraced timed phase of serve-rw.
type servePhaseResult struct {
	recs       []serveRec
	sum        serveSummary
	wall       time.Duration
	mem        memDelta
	pre, stats serve.Stats // server counters before and after the phase
}

func serveTimed(cfg config, st *serveState, setup time.Duration) (*report, servePhaseResult, error) {
	var ph servePhaseResult
	ph.pre = st.srv.Statsz()
	st.srv.ResetMetrics()
	before := snapMem()
	recs, wall, err := servePhase(cfg, st, nil)
	if err != nil {
		return nil, ph, err
	}
	ph.recs, ph.wall = recs, wall
	ph.mem = memSince(before, len(recs))
	ph.stats = st.srv.Statsz()
	ph.sum = summarizeServe(recs)
	s := ph.sum

	ops := len(recs)
	rep := &report{ops: ops}
	nm := float64(len(s.misses))
	rep.fingerprint = map[string]float64{
		"hits": float64(len(s.hits)), "misses": nm, "updates": float64(len(s.updates)),
		"resolves": float64(s.resolves), "patches": float64(s.patches),
		"rounds_per_solve": s.rounds / nm, "messages_per_solve": s.msgs / nm,
		"bits_per_solve": s.bits / nm, "approx_ratio": s.rsum / nm,
		"update_rounds": s.updateRounds,
	}
	addCommonE2E(rep, setup, ops, wall, clientMs(recs), ph.mem, s.rounds/nm, s.msgs/nm, s.rsum/nm)
	addQuantiles(rep, "hit", clientMs(s.hits), 0.5, 0.9, 0.99)
	addQuantiles(rep, "miss", clientMs(s.misses), 0.5, 0.9)
	addQuantiles(rep, "update", clientMs(s.updates), 0.5, 0.9)
	rep.addInfo("hits", "count", float64(len(s.hits)), len(recs))
	rep.addInfo("misses", "count", nm, len(recs))
	rep.addInfo("updates", "count", float64(len(s.updates)), len(recs))
	return rep, ph, nil
}

// addQuantiles prints a request class's latency percentiles, each only
// when at least ten samples lie beyond it.
func addQuantiles(rep *report, class string, xs []float64, qs ...float64) {
	for _, q := range qs {
		if supported(len(xs), q) {
			rep.addInfo(fmt.Sprintf("%s_p%d_ms", class, int(q*100+0.5)), "ms", percentile(xs, q), len(xs))
		}
	}
}

// addServeLayers reports the serving path's per-layer metrics from the
// untraced phase: client and server latency per request class, and the
// server's own counters.
func (r *report) addServeLayers(ph servePhaseResult) {
	s, stats := ph.sum, ph.stats
	hitC, missC, updC := clientMs(s.hits), clientMs(s.misses), clientMs(s.updates)
	hitS, missS, updS := serverMs(s.hits), serverMs(s.misses), serverMs(s.updates)
	over := make([]float64, len(s.hits))
	for i, h := range s.hits {
		over[i] = h.clientMs - h.serverMs
	}
	nm := float64(len(s.misses))
	solvePerMiss := float64(stats.SolveNs) / nm / 1e6
	r.addLayer("serve.client_overhead_ms", "ms", percentile(over, 0.5), len(over))
	r.addLayer("serve.server_hit_ms", "ms", percentile(hitS, 0.5), len(hitS))
	r.addLayer("serve.server_miss_ms", "ms", percentile(missS, 0.5), len(missS))
	r.addLayer("serve.solve_ms_per_miss", "ms", solvePerMiss, len(missS))
	r.addLayer("serve.queue_linger_ms", "ms", mean(missS)-solvePerMiss, len(missS))
	r.addLayer("serve.cache_hit_ratio", "ratio", float64(len(s.hits))/float64(len(s.hits)+len(s.misses)), len(s.hits)+len(s.misses))
	r.addLayer("serve.collapsed", "count", float64(stats.Collapsed), 1)
	r.addLayer("serve.mean_batch", "count", stats.MeanBatch, int(stats.Batches))
	r.addLayer("serve.rejected", "count", float64(stats.Rejected), 1)
	r.addLayer("serve.evicted", "count", float64(stats.Evicted), 1)
	if tot := stats.SolveNs + stats.WastedSolveNs; tot > 0 {
		r.addLayer("serve.wasted_solve_ratio", "ratio", float64(stats.WastedSolveNs)/float64(tot), 1)
	}
	r.addLayer("serve.hit_p50_ms", "ms", percentile(hitC, 0.5), len(hitC))
	r.addLayer("serve.hit_p90_ms", "ms", percentile(hitC, 0.9), len(hitC))
	r.addLayer("serve.miss_p50_ms", "ms", percentile(missC, 0.5), len(missC))
	r.addLayer("serve.update_p50_ms", "ms", percentile(updC, 0.5), len(updC))
	r.addLayer("serve.update_server_ms", "ms", percentile(updS, 0.5), len(updS))
	r.addLayer("serve.update_rounds", "count", s.updateRounds/float64(len(s.updates)), len(s.updates))
	r.addLayer("serve.update_resolves", "count", float64(s.resolves), len(s.updates))
	r.addLayer("serve.update_patches", "count", float64(s.patches), len(s.updates))
	r.addLayer("congest.rounds", "count", s.rounds/nm, len(s.misses))
	r.addLayer("congest.messages", "count", s.msgs/nm, len(s.misses))
	r.addLayer("congest.bits", "count", s.bits/nm, len(s.misses))
	r.addLayer("error_ratio", "ratio", 0, len(ph.recs))
	// Statsz gives mean set-up ns per acquisition (arena counters are not
	// reset with the others), so totals are mean times count.
	pre, post := ph.pre, stats
	warm := float64(post.ArenaWarm - pre.ArenaWarm)
	cold := float64(post.ArenaCold - pre.ArenaCold)
	warmNs := float64(post.ArenaWarmSetupNs)*float64(post.ArenaWarm) - float64(pre.ArenaWarmSetupNs)*float64(pre.ArenaWarm)
	coldNs := float64(post.ArenaColdSetupNs)*float64(post.ArenaCold) - float64(pre.ArenaColdSetupNs)*float64(pre.ArenaCold)
	ratio, warmUs, coldUs := arenaFigures(warm, cold, warmNs, coldNs)
	if cold == 0 {
		// Every run of the phase found a warm arena; report the cold
		// set-up paid before it.
		_, _, coldUs = arenaFigures(0, float64(post.ArenaCold), 0, float64(post.ArenaColdSetupNs)*float64(post.ArenaCold))
	}
	r.addArenaLayers(ratio, warmUs, coldUs, int(warm+cold))
}
