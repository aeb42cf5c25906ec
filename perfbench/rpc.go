package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedrlnas/internal/data"
	"fedrlnas/internal/nas"
	"fedrlnas/internal/nn"
	"fedrlnas/internal/rpcfed"
	"fedrlnas/internal/staleness"
	"fedrlnas/internal/telemetry"
	"fedrlnas/internal/tensor"
	"fedrlnas/internal/wire"
)

// rpc-k2 settings: a small supernet and batch, so the wire codec and the
// RPC call plumbing carry most of each round.
const (
	rpcK     = 2  // participants, one loopback connection each
	rpcBatch = 4  // per-participant batch
	rpcChunk = 10 // rounds per Server.RunContext call; the fp64-vs-gob check compares θ after the first
	rpcWarm  = 3  // untimed chunks before the window
	// search_acc is the mean fresh-reply accuracy over rounds
	// [rpcAccFrom, rpcAccTo) of the warm-up.
	rpcAccFrom = 15
	rpcAccTo   = 30
)

func rpcNet() nas.Config {
	return nas.Config{InChannels: 3, NumClasses: 10, C: 4, Layers: 2, Nodes: 2, Candidates: nas.AllOps}
}

func rpcDataset(seed int64) data.Spec {
	return data.Spec{Name: "rpc-k2", NumClasses: 10, Channels: 3, Height: 8, Width: 8,
		TrainPerClass: 32, TestPerClass: 8, Noise: 1.0, Confusion: 0.3, Seed: seed + 1000}
}

// countingListener counts every byte read from and written to the
// connections it accepts: the participants' sockets, whose traffic is the
// server's traffic in the other direction.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// cluster is one RPC search server plus its in-process participants.
type cluster struct {
	srv       *rpcfed.Server
	listeners []net.Listener
	done      []<-chan struct{}
	bytes     atomic.Int64
	acc       []float64 // fresh-reply mean accuracy per round, in order
	// tracing (nil unless built traced)
	traceBuf   syncBuffer
	tracer     *telemetry.Tracer
	srvReg     *telemetry.Registry
	workersReg *telemetry.Registry
}

// newCluster starts rpcK participants on loopback listeners and a server
// dialed to them, then says Hello to each. With traced set, the server and
// participants share an in-memory tracer and each side gets a registry
// before the first connection (participant codecs capture their wire
// counters when a connection is accepted).
func newCluster(seed int64, mode wire.Mode, traced bool) (*cluster, error) {
	ds, err := data.Generate(rpcDataset(seed))
	if err != nil {
		return nil, err
	}
	part, err := data.IIDPartition(ds.NumTrain(), rpcK, rand.New(rand.NewSource(seed+5)))
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	if traced {
		c.tracer = telemetry.NewJSONLTracer(&c.traceBuf)
		c.srvReg, c.workersReg = telemetry.NewRegistry(), telemetry.NewRegistry()
	}
	addrs := make([]string, rpcK)
	for i := 0; i < rpcK; i++ {
		svc, err := rpcfed.NewParticipantService(i, ds, part.Indices[i], rpcNet(), seed+int64(100+i))
		if err != nil {
			c.close()
			return nil, err
		}
		if traced {
			svc.SetTracer(c.tracer)
			svc.SetWireMetrics(telemetry.NewWireMetrics(c.workersReg))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		done, err := svc.ServeListener(countingListener{Listener: ln, bytes: &c.bytes})
		if err != nil {
			_ = ln.Close()
			c.close()
			return nil, err
		}
		c.listeners = append(c.listeners, ln)
		c.done = append(c.done, done)
		addrs[i] = ln.Addr().String()
	}
	cfg := rpcfed.DefaultServerConfig(rpcNet())
	cfg.BatchSize = rpcBatch
	cfg.Rounds = rpcChunk
	cfg.SyncConfig = staleness.SyncConfig{Quorum: 1, StalenessThreshold: 0, Lambda: 1, Strategy: staleness.Hard}
	cfg.Transport.Wire = mode
	cfg.Transport.Workers = workers
	cfg.Seed = seed
	srv, err := rpcfed.NewServer(cfg, addrs)
	if err != nil {
		c.close()
		return nil, err
	}
	c.srv = srv
	if traced {
		srv.SetTelemetry(c.tracer, c.srvReg)
	}
	for i, client := range srv.Clients() {
		var hello rpcfed.HelloReply
		if err := client.Call("Participant.Hello", &rpcfed.HelloRequest{}, &hello); err != nil {
			c.close()
			return nil, fmt.Errorf("hello %d: %w", i, err)
		}
		if hello.ParticipantID != i {
			c.close()
			return nil, fmt.Errorf("hello %d answered as participant %d", i, hello.ParticipantID)
		}
	}
	return c, nil
}

// close stops the server and the participants' accept loops and waits for
// the loops to exit.
func (c *cluster) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	for _, ln := range c.listeners {
		_ = ln.Close()
	}
	for _, d := range c.done {
		<-d
	}
}

// rounds runs one RunContext call — rpcChunk whole rounds — and returns
// their wall times in ms. A round that closes with fewer than K fresh
// replies is a failed operation.
func (c *cluster) rounds(r *run) ([]float64, error) {
	const n = rpcChunk
	res, err := c.srv.RunContext(context.Background())
	for _, p := range res.Curve.Points {
		c.acc = append(c.acc, p.Value)
	}
	if err != nil {
		r.attempted += int64(n)
		r.failed += int64(n)
		return nil, err
	}
	r.attempted += int64(res.RoundsCompleted)
	short := res.RoundsCompleted*rpcK - res.FreshReplies
	if short > 0 || res.RoundsCompleted != n {
		r.failed += int64(max(short, n-res.RoundsCompleted))
		return nil, fmt.Errorf("%d rounds: %d completed, %d fresh replies (want %d), %d late, %d dropped",
			n, res.RoundsCompleted, res.FreshReplies, n*rpcK, res.LateReplies, res.DroppedReplies)
	}
	walls := make([]float64, len(res.RoundSeconds))
	for i, s := range res.RoundSeconds {
		walls[i] = s * 1e3
	}
	return walls, nil
}

// theta copies the server's supernet weights.
func (c *cluster) theta() []*tensor.Tensor { return nn.CloneParamValues(c.srv.Supernet().Params()) }

func runRPCK2(r *run) error {
	seed := r.opts.seed
	var c *cluster
	if err := r.setup(func() { c.close() }, func() error {
		var err error
		c, err = newCluster(seed, wire.FP64, false)
		return err
	}); err != nil {
		return err
	}
	defer c.close()
	var thetaFP64 []*tensor.Tensor

	// Untimed warm-up; θ after the first chunk is the fp64 side of the
	// wire-identity check.
	for i := 0; i < rpcWarm; i++ {
		if _, err := c.rounds(r); err != nil {
			return err
		}
		if i == 0 {
			thetaFP64 = c.theta()
		}
	}

	m, bytesPerRound, err := timedRPC(r, c)
	if err != nil {
		return err
	}
	r.set("cpu_ms_per_op", m.cpuPerRound)
	r.set("heap_peak_mb", m.heapMB)
	r.note("timed %d rounds in %.2fs; round wall p50 %.3fms, %s %.3fms; %.0f B/round at the sockets (%d RPC replies, all fresh)",
		m.rounds, m.wall.Seconds(), m.p50, m.tailName, m.tail, bytesPerRound, m.rounds*rpcK)

	// Correctness: the same prefix over gob (the lossless reference codec)
	// lands on the same θ, bit for bit.
	g, err := newCluster(seed, wire.Gob, false)
	if err != nil {
		return err
	}
	_, err = g.rounds(&run{})
	thetaGob := g.theta()
	g.close()
	if err != nil {
		return fmt.Errorf("gob reference: %w", err)
	}
	r.check("theta fp64 wire == gob", equalTensors(thetaFP64, thetaGob),
		"theta after %d rounds over the fp64 wire vs gob (%d tensors)", rpcChunk, len(thetaGob))
	searchAcc := mean(c.acc[rpcAccFrom:rpcAccTo])
	r.check("every round got K fresh replies", r.failed == 0, "%d rounds, %d short", r.attempted, r.failed)

	if r.opts.trace {
		m.setLayers(r, searchAcc)
		if err := tracedRPC(r, m.p50); err != nil {
			return err
		}
		r.idle("serve")
	}
	return nil
}

// timedRPC runs whole chunks of rounds until the window has elapsed.
func timedRPC(r *run, c *cluster) (roundMetrics, float64, error) {
	bytes0 := c.bytes.Load()
	m, err := timedRounds(r, func() ([]float64, error) { return c.rounds(r) })
	if err != nil {
		return m, 0, err
	}
	return m, float64(c.bytes.Load()-bytes0) / float64(m.rounds), nil
}

// tracedRPC runs a traced cluster for the traced half of the run and
// derives the rpcfed, wire and round-phase metrics from the program's
// spans and counters.
func tracedRPC(r *run, untracedP50 float64) error {
	c, err := newCluster(r.opts.seed, wire.FP64, true)
	if err != nil {
		return err
	}
	defer c.close()
	if _, err := c.rounds(r); err != nil { // warm the traced cluster
		return err
	}
	queue := c.srvReg.Counter("parallel_queue_wait_nanoseconds_total", "")
	queue0 := queue.Value()
	srvWire := telemetry.NewWireMetrics(c.srvReg)
	wrkWire := telemetry.NewWireMetrics(c.workersReg)
	enc0 := srvWire.EncodeNs.Value() + wrkWire.EncodeNs.Value()
	dec0 := srvWire.DecodeNs.Value() + wrkWire.DecodeNs.Value()
	msg0 := srvWire.MessagesSent.Value() + srvWire.MessagesReceived.Value()
	byt0 := srvWire.BytesSent.Value() + srvWire.BytesReceived.Value()
	steps := c.srvReg.Histogram("participant_step_seconds", "")
	stepN0, stepSum0 := steps.N(), steps.Sum()
	var walls []float64
	t0 := time.Now()
	for time.Since(t0) < r.window() {
		w, err := c.rounds(r)
		if err != nil {
			return err
		}
		walls = append(walls, w...)
	}
	n := float64(len(walls))
	if err := c.tracer.Err(); err != nil {
		return err
	}
	// Workers may still be emitting their last encode spans; snapshot the
	// trace under the buffer's lock and keep only the traced window.
	trace := c.traceBuf.snapshot()
	events, err := parseEvents(trace)
	if err != nil {
		return err
	}
	// Rebuild each round as a benchmark span ending at its round.end event,
	// with the dispatch, merge and controller-update phases as children.
	var calls, trains, wEnc, wDec []float64
	var round uint64
	var pending []programEvent
	var dispatched int64
	for _, e := range events {
		if e.TS < t0.UnixNano() {
			continue // the warm-up chunk
		}
		switch e.Event {
		case telemetry.EventRoundDispatch, telemetry.EventRoundMerge, telemetry.EventCtrlUpdate:
			pending = append(pending, e)
			if e.Event == telemetry.EventRoundDispatch {
				dispatched += e.Bytes
			}
		case telemetry.EventRoundEnd:
			round = r.spans.add("search.round", 0, time.Unix(0, e.TS).Add(-time.Duration(e.Seconds*float64(time.Second))), time.Unix(0, e.TS))
			for _, p := range pending {
				name := map[string]string{telemetry.EventRoundDispatch: "search.dispatch",
					telemetry.EventRoundMerge: "search.merge", telemetry.EventCtrlUpdate: "search.update"}[p.Event]
				r.eventSpan(name, round, p)
			}
			pending = pending[:0]
		case telemetry.EventRPCCall:
			calls = append(calls, e.Seconds*1e3)
		case telemetry.EventWorkerTrain:
			trains = append(trains, e.Seconds*1e3)
		case telemetry.EventWorkerEncode:
			wEnc = append(wEnc, e.Seconds*1e3)
		case telemetry.EventWorkerDecode:
			wDec = append(wDec, e.Seconds*1e3)
		}
	}
	self, count := selfByName(r.spans.spans)
	rounds := float64(count["search.round"])
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / rounds }
	r.set("search.dispatch_ms", ms(self["search.dispatch"]))
	r.set("search.merge_ms", ms(self["search.merge"]))
	r.set("search.update_ms", ms(self["search.update"]))
	r.set("search.rest_ms", ms(self["search.round"]))
	r.set("transmission.bytes_per_round", float64(dispatched)/rounds)
	r.set("staleness.late_per_round", 0)
	r.set("staleness.dropped_per_round", 0)
	r.set("parallel.step_ms", (steps.Sum()-stepSum0)/float64(steps.N()-stepN0)*1e3)
	r.set("parallel.queue_wait_ms", float64(queue.Value()-queue0)/1e6/n)

	encMs := float64(srvWire.EncodeNs.Value()+wrkWire.EncodeNs.Value()-enc0) / 1e6
	decMs := float64(srvWire.DecodeNs.Value()+wrkWire.DecodeNs.Value()-dec0) / 1e6
	r.set("wire.encode_ms_per_round", encMs/n)
	r.set("wire.decode_ms_per_round", decMs/n)
	r.set("wire.messages_per_round", float64(srvWire.MessagesSent.Value()+srvWire.MessagesReceived.Value()-msg0)/n)
	r.set("wire.bytes_per_round", float64(srvWire.BytesSent.Value()+srvWire.BytesReceived.Value()-byt0)/n)
	callP50, _ := percentile(calls, 0.5)
	r.set("rpcfed.call_ms_p50", callP50)
	r.set("rpcfed.worker_train_ms", mean(trains))
	// Per call, the server encodes the request and decodes the reply, the
	// worker decodes and encodes; what remains of the call is transport.
	perCall := float64(len(calls))
	r.set("rpcfed.transport_ms", mean(calls)-mean(trains)-(encMs+decMs)/perCall)
	tracedP50 := median(walls)
	r.set("telemetry.overhead_ms_per_round", tracedP50-untracedP50)
	r.note("traced %d rounds: round p50 %.3fms traced vs %.3fms untraced; %d calls, worker encode %.3fms decode %.3fms mean",
		len(walls), tracedP50, untracedP50, len(calls), mean(wEnc), mean(wDec))

	ds, err := data.Generate(rpcDataset(r.opts.seed))
	if err != nil {
		return err
	}
	ctrlCfg := rpcfed.DefaultServerConfig(rpcNet()).Alpha
	if _, err := replayLayers(r, layerShape{net: rpcNet(), batch: rpcBatch, dataset: ds,
		augment: data.DefaultAugment(), ctrlCfg: ctrlCfg, k: rpcK, seed: r.opts.seed}); err != nil {
		return err
	}
	explained := ms(self["search.dispatch"]) + ms(self["search.merge"]) + ms(self["search.update"]) + mean(calls)
	r.set("telemetry.coverage", explained/tracedP50)
	r.note("dispatch + merge + update + mean RPC call explain %.0f%% of the traced round p50", 100*explained/tracedP50)
	return writeProgramTrace(r, trace)
}

// syncBuffer is an in-memory trace sink that participant goroutines may
// write while the benchmark reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// snapshot copies the bytes written so far.
func (s *syncBuffer) snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}
