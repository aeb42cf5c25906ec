package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fedrlnas/internal/nn"
	"fedrlnas/internal/scenario"
	"fedrlnas/internal/search"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
)

// Each workload builds its system at least minSetups times, and keeps
// building until setupBudget has passed (at most maxSetups builds), before
// the timed phase; setup_s is the median build time and the last build is
// the one measured.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
)

// setup runs build repeatedly and records the median wall time as setup_s.
// Before each build after the first, release tears down the previous one
// and a GC collects it, so neither is charged to the next build.
func (r *run) setup(release func(), build func() error) error {
	var times []float64
	for start := time.Now(); len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget); {
		if len(times) > 0 {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times))
	r.note("setup: median of %d builds %.4fs (range %.4f..%.4f)", len(times), median(times), minOf(times), maxOf(times))
	return nil
}

// prefixRounds is how many leading rounds the determinism checks replay
// and compare bit for bit.
const prefixRounds = 3

// searchWorkload describes one in-process search workload.
type searchWorkload struct {
	cfg func(seed int64, workers int) (search.Config, error)
	// warm is the number of untimed rounds before the timed window.
	// search_acc is the mean sampled-sub-model training accuracy over
	// rounds [accFrom, accTo): a fixed prefix of every run (stepped past the
	// window if a slow run has not reached it), so it is a pure function of
	// the seed — fp64 merges are bit-repeatable.
	warm, accFrom, accTo int
	// check runs the workload-specific correctness checks after the run.
	check func(r *run, s *search.Search, cfg search.Config, searchAcc float64) error
}

// k10Config is the paper's Fig. 4 setting: search.DefaultConfig() (K=10,
// hard sync, adaptive transmission, fp64) with the dataset and every
// stochastic component drawn from the seed.
func k10Config(seed int64, w int) (search.Config, error) {
	cfg := search.DefaultConfig()
	cfg.Seed = seed
	cfg.Dataset.Seed = seed + 1000
	cfg.SearchSteps = 1 << 20
	cfg.Workers = w
	return cfg, nil
}

// dcConfig is soft synchronization with delay compensation on a mixed
// device population: K=10, the Severe staleness schedule (10% of replies
// beyond Δ), λ=1, Δ=2, 70% urban phones + 30% rural IoT (churn and
// bandwidth regimes from the scenario catalog). Batch and inputs are small
// so the round loop's own work — θ/α snapshots, compensation, merge, α
// update — is a large share of each round.
func dcConfig(seed int64, w int) (search.Config, error) {
	cfg := search.DefaultConfig()
	cfg.Seed = seed
	cfg.Dataset.Seed = seed + 1000
	cfg.BatchSize = 2
	cfg.WarmupSteps = 5
	cfg.SearchSteps = 20000
	cfg.Staleness = staleness.Severe()
	cfg.SyncConfig = staleness.SyncConfig{Quorum: 1, StalenessThreshold: 2, Lambda: 1, Strategy: staleness.DC}
	spec, err := scenario.Parse("70%phone-urban+30%iot-rural")
	if err != nil {
		return cfg, err
	}
	cfg.Scenario = spec
	cfg.Workers = w
	return cfg, nil
}

func runSearchK10(r *run) error {
	return runSearch(r, searchWorkload{
		cfg: k10Config, warm: 30, accFrom: 60, accTo: 90,
		check: checkK10,
	})
}

func runSearchDC(r *run) error {
	return runSearch(r, searchWorkload{
		cfg: dcConfig, warm: 20, accFrom: 30, accTo: 60,
		check: checkDC,
	})
}

// runSearch builds the search (see setup), steps the untimed prefix
// (recording θ after prefixRounds for the determinism check), then steps
// whole rounds until the window has elapsed.
func runSearch(r *run, w searchWorkload) error {
	cfg, err := w.cfg(r.opts.seed, workers)
	if err != nil {
		return err
	}
	var s *search.Search
	if err := r.setup(func() { s = nil }, func() error {
		s, err = search.New(cfg)
		return err
	}); err != nil {
		return err
	}
	entropy0 := s.Controller().Entropy()

	var acc []float64
	var thetaPrefix []*tensor.Tensor
	step := func() (time.Duration, error) {
		r.attempted++
		t0 := time.Now()
		info, err := s.StepRound()
		d := time.Since(t0)
		if err != nil {
			r.failed++
			return d, err
		}
		acc = append(acc, info.Accuracy)
		return d, nil
	}
	for s.Round() < w.warm {
		if _, err := step(); err != nil {
			return err
		}
		if s.Round() == prefixRounds {
			thetaPrefix = s.SnapshotTheta()
		}
	}

	m, err := timedRounds(r, func() ([]float64, error) {
		d, err := step()
		return []float64{float64(d) / float64(time.Millisecond)}, err
	})
	if err != nil {
		return err
	}
	for s.Round() < w.accTo {
		if _, err := step(); err != nil {
			return err
		}
	}
	r.set("cpu_ms_per_op", m.cpuPerRound)
	r.set("heap_peak_mb", m.heapMB)
	r.note("timed %d rounds in %.2fs; round wall p50 %.3fms, %s %.3fms",
		m.rounds, m.wall.Seconds(), m.p50, m.tailName, m.tail)

	// Correctness, common to both search workloads.
	searchAcc := mean(acc[w.accFrom:w.accTo])
	entropy1 := s.Controller().Entropy()
	r.check("alpha entropy fell", entropy1 < entropy0,
		"mean per-edge entropy %.4f -> %.4f", entropy0, entropy1)
	if err := checkPrefixWorkers(r, cfg, thetaPrefix); err != nil {
		return err
	}
	if err := w.check(r, s, cfg, searchAcc); err != nil {
		return err
	}

	if r.opts.trace {
		m.setLayers(r, searchAcc)
		if err := tracedSearch(r, s, cfg, step, m.p50); err != nil {
			return err
		}
		r.idle("wire", "rpcfed", "serve")
	}
	return nil
}

// roundMetrics summarizes one timed window of rounds.
type roundMetrics struct {
	rounds            int
	wall              time.Duration
	p50, tail         float64 // ms
	tailName          string
	cpuPerRound       float64 // ms
	heapMB            float64
	allocsPerRound    float64
	gemmGFLOPPerRound float64
	gemmMsPerRound    float64
	gemmGFLOPS        float64
}

// setLayers records the per-layer metrics the untraced window measured.
func (m roundMetrics) setLayers(r *run, searchAcc float64) {
	r.set("search.acc", searchAcc)
	r.set("search.allocs_per_round", m.allocsPerRound)
	r.set("tensor.gemm_gflop_per_round", m.gemmGFLOPPerRound)
	r.set("tensor.gemm_ms_per_round", m.gemmMsPerRound)
	r.set("tensor.gemm_gflops", m.gemmGFLOPS)
	r.set("tensor.gemm_us_per_req", 0)
}

// tailFor picks the highest of p99/p90 that keeps minBeyond samples beyond
// it at n samples.
func tailFor(xs []float64) (string, float64) {
	if v, ok := percentile(xs, 0.99); ok {
		return "p99", v
	}
	v, _ := percentile(xs, 0.90)
	return "p90", v
}

// timedRounds calls step — which runs one or more whole rounds and returns
// their wall times in ms — until the run's window has elapsed, and reports
// wall-time percentiles, process CPU per round, peak heap, and (cheap
// enough to always read) allocation and GEMM counters.
func timedRounds(r *run, step func() ([]float64, error)) (roundMetrics, error) {
	var m roundMetrics
	var walls []float64
	runtime.GC()
	heap := startHeapSampler(10 * time.Millisecond)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	flops0, nanos0 := tensor.GemmFLOPs(), tensor.GemmKernelNanos()
	cpu0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < r.window() {
		w, err := step()
		if err != nil {
			heap.finish()
			return m, err
		}
		walls = append(walls, w...)
	}
	cpu, wall := cpuTime()-cpu0, time.Since(t0)
	flops, nanos := tensor.GemmFLOPs()-flops0, tensor.GemmKernelNanos()-nanos0
	runtime.ReadMemStats(&ms1)
	m.heapMB = heap.finish()
	n := int64(len(walls))
	m.rounds, m.wall = len(walls), wall
	m.p50 = median(walls)
	m.tailName, m.tail = tailFor(walls)
	m.cpuPerRound = perUnit(cpu, n, time.Millisecond)
	m.allocsPerRound = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	m.gemmGFLOPPerRound = float64(flops) / 1e9 / float64(n)
	m.gemmMsPerRound = perUnit(time.Duration(nanos), n, time.Millisecond)
	m.gemmGFLOPS = float64(flops) / float64(nanos)
	return m, nil
}

// checkPrefixWorkers reruns the first prefixRounds rounds with a single
// worker and requires the same θ, bit for bit, as the timed run reached at
// the same round with `workers` workers.
func checkPrefixWorkers(r *run, cfg search.Config, want []*tensor.Tensor) error {
	cfg.Workers = 1
	s1, err := search.New(cfg)
	if err != nil {
		return err
	}
	for i := 0; i < prefixRounds; i++ {
		if _, err := s1.StepRound(); err != nil {
			return err
		}
	}
	got := s1.SnapshotTheta()
	r.check("theta workers=1 == workers=2", equalTensors(got, want),
		"theta after %d rounds at workers=1 vs workers=%d (%d tensors)", prefixRounds, workers, len(want))
	return nil
}

// equalTensors compares two tensor lists bit for bit.
func equalTensors(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				return false
			}
		}
	}
	return true
}

// checkK10: hard sync accounts every reply as fresh, and the sampled
// sub-models learn (accuracy clearly above chance).
func checkK10(r *run, s *search.Search, cfg search.Config, searchAcc float64) error {
	chance := 1 / float64(cfg.Dataset.NumClasses)
	r.check("search_acc above chance", searchAcc > chance+0.05,
		"mean training accuracy over rounds [60,90) = %.4f, chance %.4f", searchAcc, chance)
	st := s.Stats
	want := cfg.K * s.Round()
	r.check("hard-sync reply accounting", st.Fresh == want && st.Late == 0 && st.Dropped == 0 && st.Offline == 0,
		"fresh %d (want K*rounds = %d), late %d, dropped %d, offline %d", st.Fresh, want, st.Late, st.Dropped, st.Offline)
	return nil
}

// checkDC: every reply is accounted for exactly once, soft sync was
// actually exercised, state stays finite, and CompensateTheta matches the
// benchmark's own evaluation of Eq. 13 on the workload's tensor sizes.
func checkDC(r *run, s *search.Search, cfg search.Config, _ float64) error {
	st := s.Stats
	rounds := s.Round()
	sum := st.Fresh + st.Late + st.Dropped + st.Offline
	r.check("soft-sync reply accounting", sum == cfg.K*rounds && st.Late > 0 && st.Dropped > 0,
		"fresh %d + late %d + dropped %d + offline %d = %d (want K*rounds = %d, late and dropped > 0)",
		st.Fresh, st.Late, st.Dropped, st.Offline, sum, cfg.K*rounds)
	ok := true
	for _, p := range s.Supernet().Params() {
		ok = ok && finite(p.Value.Data())
	}
	pn, pr := s.Controller().Probs()
	for _, rows := range [][][]float64{pn, pr} {
		for _, row := range rows {
			ok = ok && finite(row)
		}
	}
	r.check("theta and alpha finite", ok, "every supernet weight and policy probability is finite")

	params := s.Supernet().Params()
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	g, fresh, stale := randLike(rng, params), randLike(rng, params), randLike(rng, params)
	got, err := staleness.CompensateTheta(g, fresh, stale, cfg.Lambda)
	if err != nil {
		return err
	}
	want := make([]*tensor.Tensor, len(g))
	for i := range g {
		want[i] = tensor.New(g[i].Shape()...)
		gd, fd, sd, wd := g[i].Data(), fresh[i].Data(), stale[i].Data(), want[i].Data()
		for j := range wd {
			wd[j] = gd[j] + cfg.Lambda*gd[j]*gd[j]*(fd[j]-sd[j])
		}
	}
	r.check("CompensateTheta == g + λ·g⊙g⊙(θf−θs)", equalTensors(got, want),
		"%d tensors of the supernet's shapes, λ=%g", len(g), cfg.Lambda)
	return nil
}

// randLike returns standard-normal tensors shaped like params' values.
func randLike(rng *rand.Rand, params []*nn.Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		t := tensor.New(p.Value.Shape()...)
		for j := range t.Data() {
			t.Data()[j] = rng.NormFloat64()
		}
		out[i] = t
	}
	return out
}

// programEvent is the subset of the program's JSONL trace line the
// benchmark reads back.
type programEvent struct {
	TS        int64   `json:"ts"`
	Event     string  `json:"event"`
	Round     int     `json:"round"`
	Bytes     int64   `json:"bytes"`
	Staleness int     `json:"staleness"`
	Seconds   float64 `json:"seconds"`
}

func parseEvents(buf []byte) ([]programEvent, error) {
	var out []programEvent
	sc := bufio.NewScanner(bytes.NewReader(buf))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var e programEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("program trace line %q: %w", sc.Text(), err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// eventSpan converts a program event (stamped at its end, with its
// duration) into a benchmark span under parent.
func (r *run) eventSpan(name string, parent uint64, e programEvent) {
	end := time.Unix(0, e.TS)
	r.spans.add(name, parent, end.Add(-time.Duration(e.Seconds*float64(time.Second))), end)
}

// tracedSearch runs the traced half of a search workload: the program's
// tracer and registry are attached, every round is a benchmark span, and
// the program's dispatch/merge/controller-update events become its child
// spans. It then replays the individual layers.
func tracedSearch(r *run, s *search.Search, cfg search.Config, step func() (time.Duration, error), untracedP50 float64) error {
	var buf bytes.Buffer
	tracer := telemetry.NewJSONLTracer(&buf)
	reg := telemetry.NewRegistry()
	s.SetTelemetry(tracer, reg)
	stats0 := s.Stats
	roundSpan := make(map[int]uint64)
	var walls []float64
	t0 := time.Now()
	for time.Since(t0) < r.window() {
		id := r.spans.begin("search.round", 0)
		roundSpan[s.Round()] = id
		d, err := step()
		r.spans.end(id)
		if err != nil {
			return err
		}
		walls = append(walls, float64(d)/float64(time.Millisecond))
	}
	s.SetTelemetry(nil, nil)
	if err := tracer.Err(); err != nil {
		return err
	}
	events, err := parseEvents(buf.Bytes())
	if err != nil {
		return err
	}
	var txBytes int64
	for _, e := range events {
		parent, ok := roundSpan[e.Round]
		if !ok {
			continue
		}
		switch e.Event {
		case telemetry.EventRoundDispatch:
			r.eventSpan("search.dispatch", parent, e)
		case telemetry.EventRoundMerge:
			r.eventSpan("search.merge", parent, e)
		case telemetry.EventCtrlUpdate:
			r.eventSpan("search.update", parent, e)
		case telemetry.EventTxAssign:
			txBytes += e.Bytes
		}
	}
	n := float64(len(walls))
	self, _ := selfByName(r.spans.spans)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	r.set("search.dispatch_ms", ms(self["search.dispatch"]))
	r.set("search.merge_ms", ms(self["search.merge"]))
	r.set("search.update_ms", ms(self["search.update"]))
	r.set("search.rest_ms", ms(self["search.round"]))
	r.set("transmission.bytes_per_round", float64(txBytes)/n)
	st := s.Stats
	r.set("staleness.late_per_round", float64(st.Late-stats0.Late)/n)
	r.set("staleness.dropped_per_round", float64(st.Dropped-stats0.Dropped)/n)

	steps := reg.Histogram("participant_step_seconds", "")
	r.set("parallel.step_ms", steps.Sum()/float64(steps.N())*1e3)
	r.set("parallel.queue_wait_ms", float64(reg.Counter("parallel_queue_wait_nanoseconds_total", "").Value())/1e6/n)
	tracedP50 := median(walls)
	r.set("telemetry.overhead_ms_per_round", tracedP50-untracedP50)
	r.note("traced %d rounds: round p50 %.3fms traced vs %.3fms untraced", len(walls), tracedP50, untracedP50)

	lt, err := replayLayers(r, layerShape{net: cfg.Net, batch: cfg.BatchSize, dataset: s.Dataset(),
		augment: cfg.Augment, ctrlCfg: cfg.Alpha, k: cfg.K, seed: cfg.Seed})
	if err != nil {
		return err
	}
	// A round runs K participant steps across the worker pool, then the
	// controller work; the replayed layers' share of the round is how much
	// of the measured round they explain.
	perStep := lt.forwardSampled + lt.backwardSampled + lt.gather + lt.augment + lt.logProbGrad
	explained := float64(cfg.K)*perStep/float64(min(workers, cfg.K)) +
		float64(cfg.K)*lt.sample + lt.assign + lt.apply
	r.set("telemetry.coverage", explained/(untracedP50*1e3))
	r.note("replayed layers explain %.0f%% of the untraced round p50", 100*explained/(untracedP50*1e3))
	return writeProgramTrace(r, buf.Bytes())
}
