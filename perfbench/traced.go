package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"trapquorum/internal/erasure"
)

// runtimeSample reads the runtime/metrics counters the runtime.*
// metrics are computed from.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
}

// perKindMetrics are the RPC kinds whose latencies are reported: the
// read path's two and the write path's two (the data node's PutChunk
// and the parity nodes' CompareAndAdd), which also carry the drain.
var perKindMetrics = []kind{kReadVersions, kReadChunk, kPutChunk, kCompareAndAdd}

// runTraced gives the per-layer metrics. It runs the workload once on
// a fleet with every layer wrapped, then, with the spans analysed and
// dropped, once untraced on a fresh fleet: that pass gives
// trace.overhead_frac and the runtime.* metrics, which the wrappers
// would inflate. Running the untraced pass second leaves any warm-up
// advantage to it, so the overhead is not understated.
func runTraced(ctx context.Context, cfg runConfig) (*report, error) {
	w := cfg.w
	in := genInputs(w, cfg.seed, cfg.seconds)
	d := time.Duration(cfg.seconds) * time.Second

	tr := newTracer()
	f, _, _, err := setUp(ctx, cfg, in, tr)
	if err != nil {
		return nil, err
	}
	tr.reset()
	if w.mixed {
		tr.maxPuts = probePuts
	}
	m0 := f.store.Metrics()
	rejects0 := versionRejects(f)
	win, err := w.window(ctx, f, in, d)
	m1 := f.store.Metrics()
	rejects1 := versionRejects(f)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if cfg.spansPath != "" {
		if err := tr.writeTSV(cfg.spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	a := analyse(tr, win)
	var probe diskProbe
	if len(tr.puts) > 0 {
		if probe, err = diskstoreProbe(filepath.Join(cfg.root, "diskstore-probe"), tr.puts); err != nil {
			return nil, err
		}
	}
	tr = nil // drop the spans before the untraced pass

	f, _, _, err = setUp(ctx, cfg, in, nil)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	plain, err := w.window(ctx, f, in, d)
	rt1 := readRuntime()
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	both := *win
	both.attempted += plain.attempted
	both.failed += plain.failed
	both.failures = append(append([]string(nil), plain.failures...), win.failures...)
	r := newReport(&both)
	nOps := float64(max(a.ops, 1))
	na := map[string]bool{}
	addNA := func(name string, v float64, unit string, applicable bool) {
		if !applicable {
			v = 0
			na[name] = true
		}
		r.add(name, v, unit)
	}

	plainOps := float64(max(plain.ops, 1))
	r.add("runtime.allocs_per_op", float64(rt1.allocs-rt0.allocs)/plainOps, "count")
	r.add("runtime.alloc_kb_per_op", float64(rt1.allocBytes-rt0.allocBytes)/1024/plainOps, "KiB")
	r.add("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/max(rt1.totalCPU-rt0.totalCPU, 1e-9), "frac")
	r.add("runtime.gc_cycles_per_kop", float64(rt1.gcCycles-rt0.gcCycles)*1000/plainOps, "count")

	recode := win.drain > 0
	r.add("service.self_us_per_op", a.selfNs/nOps/1e3, "us")
	addNA("service.migrate_ms_per_object", ms(win.drain)/float64(max(win.objects, 1)), "ms", recode)
	addNA("service.migrate_retries", float64(win.retries), "count", recode)
	addNA("service.drain_rpc_busy_frac", float64(a.drainBusyNs)/float64(max(win.drain, 1)), "frac", recode)

	for _, k := range rpcKinds {
		r.add("core.rpcs_per_op."+kindNames[k], float64(a.opRPCs[k])/nOps, "count")
	}
	r.add("core.critical_rpc_us_per_op", a.criticalNs/nOps/1e3, "us")
	r.add("core.rpc_cancelled_frac", float64(a.cancelled)/float64(max(a.rpcs, 1)), "frac")
	r.add("core.direct_reads_per_op", float64(m1.DirectReads-m0.DirectReads)/nOps, "count")
	r.add("core.decode_reads_per_op", float64(m1.DecodeReads-m0.DecodeReads)/nOps, "count")
	r.add("core.rollbacks", float64(m1.Rollbacks-m0.Rollbacks), "count")

	for _, k := range perKindMetrics {
		c, s := a.client[k], a.server[k]
		addNA("tcp.rpc_p50_us."+kindNames[k], us(c.p50()), "us", c.n > 0)
		addNA("tcp.self_us_per_rpc."+kindNames[k], float64(c.busy-s.busy)/float64(max(c.n, 1))/1e3, "us", c.n > 0)
	}
	r.add("tcp.bytes_per_op", float64(a.wireBytes)/nOps, "B")
	r.add("tcp.retries", float64(m1.TransportRetries-m0.TransportRetries), "count")
	r.add("tcp.breaker_fast_fails", float64(m1.BreakerFastFails-m0.BreakerFastFails), "count")

	r.add("nodeengine.busy_us_per_op", float64(a.serverBusy)/nOps/1e3, "us")
	for _, k := range perKindMetrics {
		s := a.server[k]
		addNA("nodeengine.call_p50_us."+kindNames[k], us(s.p50()), "us", s.n > 0)
	}
	r.add("nodeengine.version_rejects_per_kop", float64(rejects1-rejects0)*1000/nOps, "count")

	put := a.store[kPut]
	userWrites := float64(len(win.writes))
	writes := userWrites > 0
	addNA("memstore.busy_us_per_op", float64(a.storeBusy)/nOps/1e3, "us", true)
	addNA("memstore.put_p50_us", us(put.p50()), "us", put.n > 0)
	addNA("memstore.mutations_per_write", float64(put.n+a.store[kDelete].n)/max(userWrites, 1), "count", writes)
	addNA("memstore.bytes_written_per_user_byte", float64(put.bytes)/max(userWrites*float64(w.blockSize), 1), "ratio", writes)
	addNA("diskstore.put_p50_us", us(probe.putP50), "us", probe.puts > 0)
	addNA("diskstore.dir_bytes_per_live_byte", probe.dirPerChunkByte*codeN/codeK, "ratio", probe.puts > 0)
	if probe.puts > 0 {
		r.note(fmt.Sprintf("diskstore probe: %d captured store Puts replayed on default options (fsync per mutation): p50 %.1f us, p99 %.1f us",
			probe.puts, us(probe.putP50), us(probe.putP99)))
	}
	r.note("diskstore.batch_wait_us not applicable: no store in the runs reports Batching()")

	n, k := codeN, codeK
	if recode {
		n, k = recodeTarget.N, recodeTarget.K
	}
	enc, delta := erasureTimes(n, k, w.blockSize)
	r.add("erasure.encode_us_per_stripe", enc, "us")
	r.add("erasure.delta_us_per_block", delta, "us")
	chunkPuts := a.rpcKind[kPutChunk] + a.rpcKind[kPutChunkIfFresher]
	r.add("erasure.stripes_encoded_per_op", float64(chunkPuts)/float64(n)/nOps, "count")
	r.add("erasure.deltas_per_op", float64(a.opRPCs[kCompareAndAdd])/nOps, "count")

	plainRate := float64(plain.ops) / plain.wall.Seconds()
	tracedRate := float64(win.ops) / win.wall.Seconds()
	r.add("trace.overhead_frac", 1-tracedRate/plainRate, "frac")

	var names []string
	for name := range na {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		r.note(fmt.Sprintf("not applicable to %s (reported as 0): %v", w.name, names))
	}
	r.note(fmt.Sprintf("traced window: %d ops, %d RPC spans, %d server spans, %d store spans; traced %.1f ops/s, untraced %.1f ops/s",
		a.ops, a.rpcs, a.serverSpans, a.storeSpans, tracedRate, plainRate))
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func versionRejects(f *fleet) int64 {
	var n int64
	for _, e := range f.engines() {
		n += e.Metrics().VersionRejects.Load()
	}
	return n
}

// kindStats aggregates one kind's spans at one layer.
type kindStats struct {
	n, busy, bytes int64
	durs           []time.Duration // successful calls only
}

func (k *kindStats) add(s span) {
	k.n++
	k.busy += s.dur()
	k.bytes += s.bytes
	if s.out == outOK {
		k.durs = append(k.durs, time.Duration(s.dur()))
	}
}

func (k *kindStats) p50() time.Duration { return percentile(k.durs, 0.5) }

// analysis is the traced window reduced to the per-layer figures.
type analysis struct {
	ops                     int     // foreground op spans
	selfNs, criticalNs      float64 // summed over ops
	opRPCs                  [numKinds]int64
	rpcKind                 [numKinds]int64 // every RPC span, drain's included
	rpcs, cancelled         int64
	drainBusyNs             int64
	client, server, store   [numKinds]kindStats
	serverBusy, storeBusy   int64
	serverSpans, storeSpans int
	wireBytes               int64
}

func analyse(tr *tracer, win *window) analysis {
	var a analysis
	opIdx := map[uint64]int{}
	var ops []span
	for _, s := range tr.spans(layerOp) {
		if s.kind == kOpDrain {
			continue
		}
		opIdx[s.id] = len(ops)
		ops = append(ops, s)
	}
	a.ops = len(ops)
	children := make([][]span, len(ops))
	var drain []span
	for _, s := range tr.spans(layerRPC) {
		a.rpcs++
		a.rpcKind[s.kind]++
		if s.out == outCancelled {
			a.cancelled++
		}
		a.client[s.kind].add(s)
		if i, ok := opIdx[s.parent]; ok {
			children[i] = append(children[i], s)
			a.opRPCs[s.kind]++
		} else if s.parent != 0 && s.parent == win.drainSpan {
			drain = append(drain, s)
		}
	}
	for i, op := range ops {
		covered := union(children[i])
		a.criticalNs += float64(covered)
		a.selfNs += float64(op.dur() - covered)
	}
	a.drainBusyNs = union(drain)
	for _, s := range tr.spans(layerServer) {
		a.server[s.kind].add(s)
		a.serverBusy += s.dur()
	}
	for _, s := range tr.spans(layerStore) {
		a.store[s.kind].add(s)
		if s.kind != kBatchWait {
			a.storeBusy += s.dur()
		}
	}
	a.serverSpans = len(tr.spans(layerServer))
	a.storeSpans = len(tr.spans(layerStore))
	a.wireBytes = tr.wireBytes.Load()
	return a
}

// union is the total time covered by the spans' intervals.
func union(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
	var total int64
	lo, hi := ss[0].start, ss[0].end
	for _, s := range ss[1:] {
		if s.start > hi {
			total += hi - lo
			lo, hi = s.start, s.end
			continue
		}
		hi = max(hi, s.end)
	}
	return total + hi - lo
}

// erasureTimes times Code.Encode of one stripe and one
// ParityAdjustmentInto of one block at the given geometry, in µs, as
// the median of 15 batches.
func erasureTimes(n, k, blockSize int) (encUs, deltaUs float64) {
	code, err := erasure.New(n, k)
	if err != nil {
		fatal(err)
	}
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, blockSize)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j)
		}
	}
	dst := make([]byte, blockSize)
	const batch = 64
	var encs, deltas []float64
	for b := 0; b < 15; b++ {
		t := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := code.Encode(data); err != nil {
				fatal(err)
			}
		}
		encs = append(encs, float64(time.Since(t))/batch/1e3)
		t = time.Now()
		for i := 0; i < batch; i++ {
			code.ParityAdjustmentInto(dst, k+i%(n-k), i%k, data[i%k])
		}
		deltas = append(deltas, float64(time.Since(t))/batch/1e3)
	}
	return median(encs), median(deltas)
}
