package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	steinerforest "steinerforest"
	"steinerforest/internal/congest"
)

// errQuarantined marks a job refused because its instance is quarantined
// after repeated solver panics (mapped to 503 quarantined).
var errQuarantined = errors.New("serve: instance quarantined after repeated solver panics")

// errIsCancel reports whether err means "the requester stopped caring":
// an engine round-boundary abort, a fired context observed before or
// after the solve, or a queue eviction wrapping either.
func errIsCancel(err error) bool {
	return err != nil && (errors.Is(err, congest.ErrCancelled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// batchKey groups requests that may share one dispatch. Seed and epsilon
// stay per-slot (SolveBatchSlots carries a full Spec per instance), so
// the key only holds the knobs that change the pool's execution profile.
type batchKey struct {
	algorithm   string
	noCert      bool
	parallelism int
}

type jobResult struct {
	res   *steinerforest.Result
	err   error
	batch int // size of the batch the job rode in
}

// job is one admitted solve request waiting for its batch.
type job struct {
	ins      *steinerforest.Instance
	spec     steinerforest.Spec
	key      batchKey
	admitted time.Time
	done     chan jobResult // buffered(1): dispatch never blocks on a gone client

	// ctx is the request's merged lifecycle context (client disconnect +
	// deadline + server force-abort); nil only for jobs that predate it
	// (tests). entry backs quarantine checks and chaos instance targeting.
	// Under Config.DisableCancellation ctx still rides along — it feeds
	// the wasted-work accounting — but is never given to the solver and
	// never evicts.
	ctx   context.Context
	entry *entry

	// Singleflight bookkeeping, set when the request leads a flight: the
	// dispatcher resolves the flight (caching the result and releasing
	// every collapsed follower) even if the leader's client is gone.
	cache    *solveCache
	cacheKey steinerforest.Spec
	flight   *flight

	// update, when non-nil, makes this a demand-update job instead of a
	// solve: it rides the same bounded queue (sharing 429/503 admission
	// semantics) and the dispatcher applies it between solve batches.
	update *updateJob
}

// admitOutcome distinguishes the three admission answers.
type admitOutcome int

const (
	admitted admitOutcome = iota
	admitFull
	admitDraining
)

// admit tries to enqueue j without blocking: a full queue is an
// immediate rejection (the handler turns it into 429 + Retry-After), and
// a draining server refuses outright (503). The shared lock pairs with
// Shutdown's exclusive section so that after Shutdown flips the flag, no
// admission can still be in flight.
func (s *Server) admit(j *job) admitOutcome {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		s.metrics.incDrained()
		return admitDraining
	}
	select {
	case s.queue <- j:
		s.metrics.incAccepted()
		return admitted
	default:
		s.metrics.incRejected()
		return admitFull
	}
}

// dispatchLoop is the single dispatcher: it pulls the first queued job,
// lingers BatchWindow to let a batch form, drains whatever else queued
// meanwhile, groups the drained jobs by batchKey (arrival order
// preserved), and dispatches each group onto the solver pool. One batch
// runs at a time; requests arriving during a solve queue up and form the
// next batches, which is where coalescing pays off under load.
func (s *Server) dispatchLoop() {
	defer s.batcher.Done()
	for {
		select {
		case j := <-s.queue:
			if s.cfg.BatchWindow > 0 && s.cfg.MaxBatch > 1 {
				time.Sleep(s.cfg.BatchWindow)
			}
			s.dispatchAll(s.drainQueue(j))
		case <-s.stop:
			// Admission is closed; finish whatever was already queued.
			for {
				select {
				case j := <-s.queue:
					s.dispatchAll(s.drainQueue(j))
				default:
					return
				}
			}
		}
	}
}

// drainQueue collects head plus every job immediately available.
func (s *Server) drainQueue(head *job) []*job {
	jobs := []*job{head}
	for {
		select {
		case j := <-s.queue:
			jobs = append(jobs, j)
		default:
			return jobs
		}
	}
}

// dispatchAll walks the drained jobs in arrival order: runs of solve
// jobs coalesce into batches, and each demand-update job flushes the
// pending solves first, then applies alone. Solves admitted before an
// update therefore see the old demand state, solves admitted after it
// see the new one — the queue order is the serialization order.
func (s *Server) dispatchAll(jobs []*job) {
	var solves []*job
	flush := func() {
		if len(solves) > 0 {
			s.dispatchSolves(solves)
			solves = nil
		}
	}
	for _, j := range jobs {
		if j.update != nil {
			flush()
			s.applyDemandUpdate(j)
			continue
		}
		solves = append(solves, j)
	}
	flush()
}

// dispatchSolves groups solve jobs by batchKey and dispatches each
// group in the arrival order of its first member, splitting at MaxBatch.
func (s *Server) dispatchSolves(jobs []*job) {
	byKey := make(map[batchKey][]*job)
	var order []batchKey
	for _, j := range jobs {
		if _, seen := byKey[j.key]; !seen {
			order = append(order, j.key)
		}
		byKey[j.key] = append(byKey[j.key], j)
	}
	for _, key := range order {
		group := byKey[key]
		for len(group) > 0 {
			n := min(len(group), s.cfg.MaxBatch)
			s.dispatch(group[:n])
			group = group[n:]
		}
	}
}

// dispatch runs one batch on the solver pool and answers every job.
// Before any solver time is spent it evicts jobs whose context already
// fired (client gone, deadline passed, or force-abort while queued) and
// jobs on quarantined instances; the survivors run as independent slots
// under SolveBatchSlots — a slot that is cancelled mid-run or panics
// never disturbs its batchmates.
func (s *Server) dispatch(batch []*job) {
	live := batch[:0]
	for _, j := range batch {
		if j.entry != nil && j.entry.health != nil && j.entry.health.quarantined.Load() {
			s.finish(j, jobResult{err: errQuarantined})
			continue
		}
		if !s.cfg.DisableCancellation && j.ctx != nil && j.ctx.Err() != nil {
			s.metrics.incEvicted()
			s.finish(j, jobResult{err: fmt.Errorf("serve: evicted from queue: %w", context.Cause(j.ctx))})
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	instances := make([]*steinerforest.Instance, len(live))
	specs := make([]steinerforest.Spec, len(live))
	var ctxs []context.Context
	if !s.cfg.DisableCancellation {
		ctxs = make([]context.Context, len(live))
	}
	chaosHooks := s.cfg.Chaos.Hooks()
	for i, j := range live {
		instances[i], specs[i] = j.ins, j.spec
		if chaosHooks != nil {
			specs[i].Hooks = chaosHooks
		}
		if ctxs != nil {
			ctxs[i] = j.ctx
		}
	}
	s.inFlightMu.Lock()
	s.inFlight += len(live)
	s.inFlightMu.Unlock()
	s.metrics.recordBatch(len(live))

	// slotNs times each slot's solve. Slots write disjoint indices and
	// SolveBatchSlots joins its workers before returning, so plain writes
	// are safe; the deferred store runs even when the slot panics.
	slotNs := make([]int64, len(live))
	run := func(ctx context.Context, slot int, ins *steinerforest.Instance, spec steinerforest.Spec) (*steinerforest.Result, error) {
		start := time.Now()
		defer func() { slotNs[slot] = time.Since(start).Nanoseconds() }()
		name := ""
		if j := live[slot]; j.entry != nil {
			name = j.entry.info.Name
		}
		if act := s.cfg.Chaos.Slot(name); act.Stall > 0 || act.Panic {
			if act.Stall > 0 {
				stallCtx(ctx, act.Stall)
			}
			if act.Panic {
				panic(fmt.Sprintf("chaos: injected panic (instance %q, slot %d)", name, slot))
			}
		}
		return steinerforest.SolveCtx(ctx, ins, spec)
	}

	results, err := s.solveSlots(instances, specs, ctxs, s.cfg.Workers, run)
	if err != nil {
		// Only argument-shape errors reach here (slot failures are
		// per-slot); answer everyone with it rather than hanging clients.
		for _, j := range live {
			s.finish(j, jobResult{err: err, batch: len(live)})
		}
	} else {
		for i, j := range live {
			r := results[i]
			s.noteSlot(j, r.Err)
			wasted := errIsCancel(r.Err) || (j.ctx != nil && j.ctx.Err() != nil)
			s.metrics.addSolveNs(slotNs[i], wasted)
			s.finish(j, jobResult{res: r.Res, err: r.Err, batch: len(live)})
		}
	}
	s.inFlightMu.Lock()
	s.inFlight -= len(live)
	s.inFlightMu.Unlock()
}

// noteSlot updates the job's instance health from its slot outcome: a
// recovered panic extends the streak (quarantining the instance at
// Config.QuarantineAfter), a success resets it, and cancellations leave
// it untouched (they say nothing about the instance).
func (s *Server) noteSlot(j *job, err error) {
	if j.entry == nil || j.entry.health == nil {
		return
	}
	h := j.entry.health
	switch {
	case err != nil && errors.Is(err, steinerforest.ErrSolverPanic):
		s.metrics.incPanic()
		h.streak++
		if s.cfg.QuarantineAfter > 0 && h.streak >= s.cfg.QuarantineAfter {
			h.quarantined.Store(true)
		}
	case err == nil:
		h.streak = 0
	}
}

// stallCtx sleeps for d but returns early if ctx fires — a chaos stall
// must not outlive the request it is stalling.
func stallCtx(ctx context.Context, d time.Duration) {
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (s *Server) finish(j *job, r jobResult) {
	s.metrics.recordDone(time.Since(j.admitted), r.err != nil)
	if j.flight != nil {
		outcome := flightSolved
		switch {
		case errIsCancel(r.err):
			outcome = flightCancelled
		case r.err != nil:
			outcome = flightError
		}
		j.cache.complete(j.cacheKey, j.flight, outcome, r.res, r.err, r.batch)
	}
	j.done <- r
}
