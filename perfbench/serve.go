package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/search"
	"fedrlnas/internal/serve"
	"fedrlnas/internal/tensor"
)

// serve-open settings. The rate is fixed (not derived from the host) so
// every run offers the same load; README.md records the capacity it was
// chosen against and the p99 limit.
const (
	serveMaxBatch  = 32
	serveMaxWait   = 2 * time.Millisecond
	serveModelSeed = 7
	serveWarm      = 500 // untimed closed-loop requests before the window
	// serveRate is the open-loop arrival rate, about half the measured
	// batch-32 capacity (see README.md).
	serveRate = 3000
	// serveP99LimitMs is the latency limit the rate sweep in README.md
	// holds the p99 to.
	serveP99LimitMs = 25
)

// serveGenotype is the fixed served architecture: every convolution and
// pooling candidate appears at least once.
func serveGenotype() nas.Genotype {
	return nas.Genotype{
		Normal: []nas.OpKind{nas.OpSepConv3, nas.OpSepConv5, nas.OpDilConv3, nas.OpIdentity, nas.OpMaxPool3},
		Reduce: []nas.OpKind{nas.OpAvgPool3, nas.OpDilConv5, nas.OpSepConv3, nas.OpIdentity, nas.OpSepConv5},
		Nodes:  2,
	}
}

// serveSetup is one served model and its server.
type serveSetup struct {
	srv *serve.Server
	inf *serve.Inference
}

func newServeSetup(netCfg nas.Config) (*serveSetup, error) {
	srv := serve.NewServer(serve.Options{DefaultBatch: serve.BatchConfig{MaxBatch: serveMaxBatch, MaxWait: serveMaxWait}})
	_, inf, err := srv.ServeModel(netCfg, serveGenotype(), serveModelSeed,
		serve.BatchConfig{MaxBatch: serveMaxBatch, MaxWait: serveMaxWait})
	if err != nil {
		return nil, err
	}
	return &serveSetup{srv: srv, inf: inf}, nil
}

// openLoop is the outcome of one open-loop window.
type openLoop struct {
	latMs      []float64 // per request, from when it was due
	serviceMs  []float64 // per request, from submission to reply
	lateMs     []float64 // per request, how late the generator submitted it
	sent       []time.Time
	cpu, wall  time.Duration
	mismatches int64
	errors     int64
}

// runOpenLoop submits n requests at a fixed rate, each on its own
// goroutine at its due time (sending every overdue request when the
// generator wakes), and waits for every reply. Each reply is compared with
// the reference logits of its input.
func runOpenLoop(r *run, inf *serve.Inference, inputs []*tensor.Tensor, refs [][]float64, rate float64, n int) openLoop {
	out := openLoop{latMs: make([]float64, n), serviceMs: make([]float64, n), lateMs: make([]float64, n),
		sent: make([]time.Time, n)}
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	var mismatches, errs atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n && start.Add(time.Duration(i)*interval).Before(now.Add(1)); i++ {
			due := start.Add(time.Duration(i) * interval)
			out.lateMs[i] = float64(now.Sub(due)) / float64(time.Millisecond)
			wg.Add(1)
			go func(i int, due time.Time) {
				defer wg.Done()
				sent := time.Now()
				out.sent[i] = sent
				x := i % len(inputs)
				logits, err := inf.Infer(inputs[x])
				done := time.Now()
				out.latMs[i] = float64(done.Sub(due)) / float64(time.Millisecond)
				out.serviceMs[i] = float64(done.Sub(sent)) / float64(time.Millisecond)
				if err != nil {
					errs.Add(1)
					return
				}
				if !equalBits(logits, refs[x]) {
					mismatches.Add(1)
				}
			}(i, due)
		}
		if i < n {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		}
	}
	wg.Wait()
	out.cpu, out.wall = cpuTime()-cpu0, time.Since(start)
	out.mismatches, out.errors = mismatches.Load(), errs.Load()
	r.attempted += int64(n)
	r.failed += out.errors
	return out
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func runServeOpen(r *run) error {
	netCfg := search.DefaultConfig().Net
	spec := data.CIFAR10S()
	spec.Seed = r.opts.seed + 1000
	ds, err := data.Generate(spec)
	if err != nil {
		return err
	}
	inputs := make([]*tensor.Tensor, ds.NumTrain())
	for i := range inputs {
		inputs[i] = ds.Image(i)
	}

	var st *serveSetup
	err = r.setup(func() { st.inf.Close() }, func() error {
		st, err = newServeSetup(netCfg)
		return err
	})
	if err != nil {
		return err
	}
	defer st.inf.Close()

	// Reference logits: a second model built apart from the served one
	// (same genotype, same seed), run one example at a time.
	ref, err := nas.NewFixedModel(rand.New(rand.NewSource(serveModelSeed)), netCfg, serveGenotype())
	if err != nil {
		return err
	}
	ref.SetTraining(false)
	refs := make([][]float64, len(inputs))
	for i, x := range inputs {
		refs[i] = append([]float64(nil), ref.Forward(x).Data()...)
	}

	// Warm the dispatcher and the kernels' scratch with a closed loop.
	var wg sync.WaitGroup
	for c := 0; c < serveMaxBatch; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < serveWarm; i += serveMaxBatch {
				_, _ = st.inf.Infer(inputs[i%len(inputs)])
			}
		}(c)
	}
	wg.Wait()

	rate := r.opts.rate
	n := int(rate * r.window().Seconds())
	runtime.GC()
	heap := startHeapSampler(10 * time.Millisecond)
	flops0, nanos0 := tensor.GemmFLOPs(), tensor.GemmKernelNanos()
	ol := runOpenLoop(r, st.inf, inputs, refs, rate, n)
	flops, nanos := tensor.GemmFLOPs()-flops0, tensor.GemmKernelNanos()-nanos0
	r.set("heap_peak_mb", heap.finish())

	p50, _ := percentile(ol.latMs, 0.5)
	p99, ok := percentile(ol.latMs, 0.99)
	r.check("p99 has ten requests beyond it", ok, "%d requests", n)
	r.set("cpu_ms_per_op", perUnit(ol.cpu, int64(n), time.Millisecond))
	late50, _ := percentile(ol.lateMs, 0.5)
	late99, _ := percentile(ol.lateMs, 0.99)
	r.note("%d requests offered at %.0f/s, served at %.0f/s: latency from due p50 %.3fms p99 %.3fms (limit %dms); generator late p50 %.3fms p99 %.3fms max %.3fms",
		n, rate, float64(n)/ol.wall.Seconds(), p50, p99, serveP99LimitMs, late50, late99, maxOf(ol.lateMs))
	r.check("every response bit-identical to a sequential Forward", ol.mismatches == 0 && ol.errors == 0,
		"%d mismatches, %d errors over %d requests (%d distinct inputs)", ol.mismatches, ol.errors, n, len(inputs))

	if r.opts.trace {
		r.set("tensor.gemm_us_per_req", float64(nanos)/1e3/float64(n))
		r.set("tensor.gemm_gflops", float64(flops)/float64(nanos))
		r.set("tensor.gemm_gflop_per_round", 0)
		r.set("tensor.gemm_ms_per_round", 0)
		met := st.srv.Metrics()
		req0, bat0 := met.Requests.Value(), met.Batches.Value()
		bsN0, bsSum0 := met.BatchSeconds.N(), met.BatchSeconds.Sum()
		id := r.spans.begin("serve.window", 0)
		traced := runOpenLoop(r, st.inf, inputs, refs, rate, n)
		r.spans.end(id)
		// Each request is a span from its submission to its reply.
		for i, sent := range traced.sent {
			r.spans.add("serve.request", id, sent, sent.Add(time.Duration(traced.serviceMs[i]*float64(time.Millisecond))))
		}
		r.check("traced responses bit-identical", traced.mismatches == 0 && traced.errors == 0,
			"%d mismatches, %d errors over %d requests", traced.mismatches, traced.errors, n)
		batches := float64(met.Batches.Value() - bat0)
		fwdMs := (met.BatchSeconds.Sum() - bsSum0) / float64(met.BatchSeconds.N()-bsN0) * 1e3
		service50, _ := percentile(traced.serviceMs, 0.5)
		r.set("serve.batch_fill", float64(met.Requests.Value()-req0)/batches)
		r.set("serve.forward_batch_ms", fwdMs)
		r.set("serve.queue_wait_ms_p50", service50-fwdMs)
		tracedP50, _ := percentile(traced.latMs, 0.5)
		r.set("telemetry.overhead_ms_per_round", tracedP50-p50)
		r.set("telemetry.coverage", (service50)/tracedP50)
		r.note("traced %d requests: latency p50 %.3fms traced vs %.3fms untraced; %.1f requests per batch",
			n, tracedP50, p50, float64(met.Requests.Value()-req0)/batches)
		if _, err := replayLayers(r, layerShape{net: netCfg, batch: serveMaxBatch, dataset: ds,
			augment: data.DefaultAugment(), ctrlCfg: controller.DefaultConfig(), k: 10, seed: r.opts.seed}); err != nil {
			return err
		}
		r.idle("search", "parallel", "wire", "rpcfed")
		r.set("transmission.bytes_per_round", 0)
		r.set("staleness.late_per_round", 0)
		r.set("staleness.dropped_per_round", 0)
	}
	return nil
}
