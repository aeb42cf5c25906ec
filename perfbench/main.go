// Command perfbench is the repository's benchmark: one program that runs a
// FedRLNAS workload for a fixed time, checks its outputs for correctness,
// and prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last line of standard output, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload search-k10 --seed 1 --seconds 15 --trace 0
//
// Workloads: search-k10, search-dc, rpc-k2, serve-open (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workers is the worker-goroutine (and participant-connection) budget of
// every workload: the 2-CPU hosts the reference figures come from.
const workers = 2

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off by every workload. A workload's unit of work ("op") is a
// communication round for the search and RPC workloads and one inference
// request for serve-open. Wall-clock latencies (median and tail) are
// printed as diagnostics, not metrics: on a host whose hypervisor steals
// a varying share of the CPU they measure the neighbours more than the
// program (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// module they measure. A layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"search.dispatch_ms", "ms"},
	{"search.merge_ms", "ms"},
	{"search.update_ms", "ms"},
	{"search.rest_ms", "ms"},
	{"search.allocs_per_round", "count"},
	{"search.acc", "fraction"},
	{"parallel.step_ms", "ms"},
	{"parallel.queue_wait_ms", "ms"},
	{"nas.forward_sampled_ms", "ms"},
	{"nas.backward_sampled_ms", "ms"},
	{"nas.op.skip_connect.fwd_us", "us"},
	{"nas.op.skip_connect.bwd_us", "us"},
	{"nas.op.max_pool_3x3.fwd_us", "us"},
	{"nas.op.max_pool_3x3.bwd_us", "us"},
	{"nas.op.avg_pool_3x3.fwd_us", "us"},
	{"nas.op.avg_pool_3x3.bwd_us", "us"},
	{"nas.op.sep_conv_3x3.fwd_us", "us"},
	{"nas.op.sep_conv_3x3.bwd_us", "us"},
	{"nas.op.sep_conv_5x5.fwd_us", "us"},
	{"nas.op.sep_conv_5x5.bwd_us", "us"},
	{"nas.op.dil_conv_3x3.fwd_us", "us"},
	{"nas.op.dil_conv_3x3.bwd_us", "us"},
	{"nas.op.dil_conv_5x5.fwd_us", "us"},
	{"nas.op.dil_conv_5x5.bwd_us", "us"},
	{"nn.relu.fwd_us", "us"},
	{"nn.relu.bwd_us", "us"},
	{"nn.conv_dw.fwd_us", "us"},
	{"nn.conv_dw.bwd_us", "us"},
	{"nn.conv_pw.fwd_us", "us"},
	{"nn.conv_pw.bwd_us", "us"},
	{"nn.bn.fwd_us", "us"},
	{"nn.bn.bwd_us", "us"},
	{"tensor.gemm_gflop_per_round", "GFLOP"},
	{"tensor.gemm_ms_per_round", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemm_us_per_req", "us"},
	{"controller.sample_us", "us"},
	{"controller.logprob_grad_us", "us"},
	{"controller.apply_us", "us"},
	{"transmission.assign_us", "us"},
	{"transmission.bytes_per_round", "B"},
	{"data.gather_us", "us"},
	{"data.augment_us", "us"},
	{"staleness.late_per_round", "count"},
	{"staleness.dropped_per_round", "count"},
	{"staleness.compensate_us", "us"},
	{"staleness.snapshot_ms", "ms"},
	{"wire.encode_ms_per_round", "ms"},
	{"wire.decode_ms_per_round", "ms"},
	{"wire.messages_per_round", "count"},
	{"wire.bytes_per_round", "B"},
	{"rpcfed.call_ms_p50", "ms"},
	{"rpcfed.worker_train_ms", "ms"},
	{"rpcfed.transport_ms", "ms"},
	{"serve.batch_fill", "count"},
	{"serve.forward_batch_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"telemetry.overhead_ms_per_round", "ms"},
	{"telemetry.coverage", "fraction"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"search-k10": runSearchK10,
	"search-dc":  runSearchDC,
	"rpc-k2":     runRPCK2,
	"serve-open": runServeOpen,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rate     float64 // serve-open arrivals per second
}

// traceDir is where a traced run writes its spans and the program's trace,
// relative to the checkout root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "traces")

// run collects one run's outcome: operation counts, correctness checks,
// metric values and diagnostics.
type run struct {
	opts      options
	attempted int64
	failed    int64
	checks    []checkResult
	metrics   map[string]float64
	notes     []string
	spans     *spanLog // nil unless --trace 1
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

// check records one correctness check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
}

// note records a diagnostic line (printed, never a metric).
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// window reports how long the timed phase of a run lasts. A traced run
// spends half of --seconds untraced (for the overhead comparison) and half
// traced.
func (r *run) window() time.Duration {
	s := r.opts.seconds
	if r.opts.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	fs.Float64Var(&o.rate, "rate", serveRate, "serve-open arrival rate (requests/s); the benchmark's rate is the default")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds %v must be positive", o.seconds)
	}
	if o.rate <= 0 {
		return o, fmt.Errorf("--rate %v must be positive", o.rate)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	r := &run{opts: o, metrics: make(map[string]float64)}
	if o.trace {
		r.spans = newSpanLog(uint64(time.Now().UnixNano()))
	}
	steal0, wall0 := stealSeconds(), time.Now()
	if err := workloads[o.workload](r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	r.note("host steal %.2fs over %.1fs of wall time (from /proc/stat; inflates wall-clock figures far more than CPU time)",
		stealSeconds()-steal0, time.Since(wall0).Seconds())
	if o.trace {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed))
		if err := r.spans.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		r.note("%d benchmark spans written to %s", len(r.spans.spans), path)
	}
	return r.emit(stdout)
}

// emit prints the checks and diagnostics, then the result line.
func (r *run) emit(w io.Writer) error {
	correct := true
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", status, c.name, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# operations attempted %d, failed %d\n", r.attempted, r.failed)
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, make(map[string]value, len(defs))}
	var missing []error
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, fmt.Errorf("metric %s not measured (%v)", d.name, v))
			continue
		}
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	if len(missing) > 0 {
		return errors.Join(missing...)
	}
	if out.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
