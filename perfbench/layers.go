package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fedrlnas/internal/controller"
	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/transmission"
	"fedrlnas/internal/wire"
)

// replayBudget is how long each replayed call is repeated; the reported
// figure is the mean per call.
const replayBudget = 25 * time.Millisecond

// layerShape is the workload geometry the layer replay runs at: the
// workload's supernet config, its per-step batch, its dataset and
// augmentation, its controller settings and participant count.
type layerShape struct {
	net     nas.Config
	batch   int
	dataset *data.Dataset
	augment data.AugmentConfig
	ctrlCfg controller.Config
	k       int
	seed    int64
}

// layerTimes holds the replayed per-call means, in microseconds, that the
// coverage estimate combines.
type layerTimes struct {
	forwardSampled, backwardSampled float64
	gather, augment                 float64
	sample, logProbGrad, apply      float64
	assign                          float64
}

// timed repeats fn for replayBudget (at least three calls), records the
// batch as one span under parent, and returns the mean µs per call. fn
// returns the duration to charge for one call, so set-up inside it (a
// forward that must precede a backward) stays off the clock.
func (r *run) timed(name string, parent uint64, fn func() time.Duration) float64 {
	id := r.spans.begin(name, parent)
	var total time.Duration
	n := 0
	for start := time.Now(); n < 3 || time.Since(start) < replayBudget; n++ {
		total += fn()
	}
	r.spans.end(id)
	return float64(total) / float64(time.Microsecond) / float64(n)
}

// clock times one call of fn.
func clock(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// randTensor is a standard-normal tensor of the given shape.
func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64()
	}
	return t
}

// fwdBwd replays one module at input x: forward alone, then backward alone
// (each backward preceded by an untimed forward that fills its caches).
func (r *run) fwdBwd(prefix string, parent uint64, m nn.Module, x *tensor.Tensor, rng *rand.Rand) {
	out := m.Forward(x)
	grad := randTensor(rng, out.Shape()...)
	r.set(prefix+".fwd_us", r.timed(prefix+".fwd", parent, func() time.Duration {
		return clock(func() { m.Forward(x) })
	}))
	r.set(prefix+".bwd_us", r.timed(prefix+".bwd", parent, func() time.Duration {
		m.Forward(x)
		return clock(func() { m.Backward(grad) })
	}))
}

// replayLayers times calls into each layer's public functions from the
// benchmark's own code, at the workload's shapes, and sets the nas, nn,
// controller, transmission, data and staleness per-layer metrics.
func replayLayers(r *run, sh layerShape) (layerTimes, error) {
	var lt layerTimes
	root := r.spans.begin("replay", 0)
	defer r.spans.end(root)
	rng := rand.New(rand.NewSource(sh.seed + 9001))

	// Candidate ops and their nn building blocks at the normal-cell shape:
	// the first cell's C channels at the input resolution.
	spec := sh.dataset.Spec
	x := randTensor(rng, sh.batch, sh.net.C, spec.Height, spec.Width)
	for _, kind := range []nas.OpKind{nas.OpIdentity, nas.OpMaxPool3, nas.OpAvgPool3,
		nas.OpSepConv3, nas.OpSepConv5, nas.OpDilConv3, nas.OpDilConv5} {
		op := nas.NewOp(kind, "replay."+kind.String(), rng, sh.net.C, 1)
		nn.SetTraining(true, op)
		r.fwdBwd("nas.op."+kind.String(), root, op, x, rng)
	}
	c := sh.net.C
	r.fwdBwd("nn.relu", root, nn.NewReLU(), x, rng)
	r.fwdBwd("nn.conv_dw", root, nn.NewConv2D("replay.dw", rng, c, c, 3, nn.ConvOpts{Pad: 1, Groups: c}), x, rng)
	r.fwdBwd("nn.conv_pw", root, nn.NewConv2D("replay.pw", rng, c, c, 1, nn.ConvOpts{}), x, rng)
	bn := nn.NewBatchNorm2D("replay.bn", c)
	bn.SetTraining(true)
	r.fwdBwd("nn.bn", root, bn, x, rng)

	// One participant step on a supernet replica: sampled forward, loss,
	// sampled backward, over a cycle of sampled architectures.
	net, err := nas.NewSupernet(rand.New(rand.NewSource(sh.seed+202)), sh.net)
	if err != nil {
		return lt, err
	}
	net.SetTraining(true)
	nE, rE := net.ArchSpace()
	ctrl, err := controller.New(nE, rE, net.NumCandidates(), sh.ctrlCfg)
	if err != nil {
		return lt, err
	}
	gates := make([]nas.Gates, 16)
	for i := range gates {
		gates[i] = ctrl.SampleGates(rng)
	}
	idx := make([]int, sh.batch)
	for i := range idx {
		idx[i] = rng.Intn(sh.dataset.NumTrain())
	}
	batchX, labels := sh.dataset.Gather(idx)
	params := net.Params()
	gi := 0
	lt.forwardSampled = r.timed("nas.forward_sampled", root, func() time.Duration {
		gi++
		return clock(func() { net.ForwardSampled(batchX, gates[gi%len(gates)]) })
	})
	var stepErr error
	lt.backwardSampled = r.timed("nas.backward_sampled", root, func() time.Duration {
		gi++
		nn.ZeroGrads(params)
		loss, err := nn.CrossEntropy(net.ForwardSampled(batchX, gates[gi%len(gates)]), labels)
		if err != nil {
			stepErr = err
			return 0
		}
		return clock(func() { net.BackwardSampled(loss.GradLogits) })
	})
	if stepErr != nil {
		return lt, stepErr
	}
	r.set("nas.forward_sampled_ms", lt.forwardSampled/1e3)
	r.set("nas.backward_sampled_ms", lt.backwardSampled/1e3)

	// Controller: sampling a sub-model, the REINFORCE log-prob gradient at a
	// snapshot, and the policy step.
	snap := ctrl.Snapshot()
	var lg controller.AlphaGrad
	grad := controller.NewAlphaGrad(nE, rE, net.NumCandidates())
	lt.sample = r.timed("controller.sample", root, func() time.Duration {
		return clock(func() { ctrl.SampleGates(rng) })
	})
	lt.logProbGrad = r.timed("controller.logprob_grad", root, func() time.Duration {
		gi++
		return clock(func() { controller.LogProbGradAtInto(&lg, snap, gates[gi%len(gates)]) })
	})
	grad.AXPY(1e-3, lg)
	lt.apply = r.timed("controller.apply", root, func() time.Duration {
		return clock(func() { ctrl.Apply(grad) })
	})
	r.set("controller.sample_us", lt.sample)
	r.set("controller.logprob_grad_us", lt.logProbGrad)
	r.set("controller.apply_us", lt.apply)

	// Adaptive transmission over K sub-models and links.
	sizes := make([]int64, sh.k)
	bw := make([]float64, sh.k)
	for i := range sizes {
		sizes[i] = net.SubModelWireBytes(gates[i%len(gates)], wire.FP64)
		bw[i] = 1 + 99*rng.Float64()
	}
	var assignErr error
	lt.assign = r.timed("transmission.assign", root, func() time.Duration {
		return clock(func() {
			if _, err := transmission.Assign(transmission.Adaptive, sizes, bw, rng); err != nil {
				assignErr = err
			}
		})
	})
	if assignErr != nil {
		return lt, assignErr
	}
	r.set("transmission.assign_us", lt.assign)

	// Data: gathering a participant batch and augmenting it.
	var gx *tensor.Tensor
	var gl []int
	lt.gather = r.timed("data.gather", root, func() time.Duration {
		return clock(func() { gx, gl = sh.dataset.GatherInto(gx, gl, idx) })
	})
	var ax *tensor.Tensor
	lt.augment = r.timed("data.augment", root, func() time.Duration {
		return clock(func() { ax = sh.augment.ApplyInto(ax, gx, rng) })
	})
	r.set("data.gather_us", lt.gather)
	r.set("data.augment_us", lt.augment)

	// Staleness: delay compensation over the whole of θ, and the deep θ
	// snapshot soft sync takes every round.
	g, fresh, stale := randLike(rng, params), randLike(rng, params), randLike(rng, params)
	var dcErr error
	r.set("staleness.compensate_us", r.timed("staleness.compensate", root, func() time.Duration {
		return clock(func() {
			if _, err := staleness.CompensateTheta(g, fresh, stale, 1); err != nil {
				dcErr = err
			}
		})
	}))
	if dcErr != nil {
		return lt, fmt.Errorf("replay CompensateTheta: %w", dcErr)
	}
	r.set("staleness.snapshot_ms", r.timed("staleness.snapshot", root, func() time.Duration {
		return clock(func() { nn.CloneParamValues(params) })
	})/1e3)
	return lt, nil
}

// idle sets every per-layer metric of the named layers to 0: the workload
// does not exercise them.
func (r *run) idle(layers ...string) {
	for _, d := range perLayer {
		for _, l := range layers {
			if strings.HasPrefix(d.name, l+".") {
				r.set(d.name, 0)
			}
		}
	}
}
