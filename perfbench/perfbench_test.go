package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"trapquorum"
	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// sameInterfaces fails the test when wrapped and inner disagree on
// any of the interfaces the checks probe.
func sameInterfaces(t *testing.T, what string, inner, wrapped any, checks map[string]func(any) bool) {
	t.Helper()
	for name, has := range checks {
		if has(inner) != has(wrapped) {
			t.Errorf("%s: inner implements %s = %v, wrapper = %v", what, name, has(inner), has(wrapped))
		}
	}
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// plainClient implements client.NodeClient and nothing else.
type plainClient struct{ client.NodeClient }

// plainService implements tcp.Service and nothing else.
type plainService struct{ tcp.Service }

// plainStore implements nodeengine.ChunkStore and nothing else.
type plainStore struct{ nodeengine.ChunkStore }

// TestWrappersPreserveOptionalInterfaces pins that the traced run
// measures the same program: every optional interface the program
// type-asserts on a backend, node client, node service or chunk store
// survives wrapping, and none is gained.
func TestWrappersPreserveOptionalInterfaces(t *testing.T) {
	tr := newTracer()

	nb := trapquorum.NewNetBackend([]string{"127.0.0.1:1"})
	sameInterfaces(t, "backend", nb, &tracedBackend{NetBackend: nb, tr: tr}, map[string]func(any) bool{
		"NodeGater":           is[trapquorum.NodeGater],
		"NodeProber":          is[trapquorum.NodeProber],
		"LinkReporter":        is[trapquorum.LinkReporter],
		"ResilienceReporter":  is[trapquorum.ResilienceReporter],
		"LatencyReporter":     is[trapquorum.LatencyReporter],
		"AddrGrowableBackend": is[trapquorum.AddrGrowableBackend],
		"GrowableBackend":     is[trapquorum.GrowableBackend],
		"FaultInjector":       is[trapquorum.FaultInjector],
	})
	if !is[trapquorum.AddrGrowableBackend](&tracedBackend{NetBackend: nb, tr: tr}) {
		t.Error("traced backend lost AddrGrowableBackend")
	}

	clientChecks := map[string]func(any) bool{"client.EpochSetter": is[client.EpochSetter]}
	tc := tcp.NewClient("127.0.0.1:1")
	defer tc.Close()
	sameInterfaces(t, "tcp client", tc, wrapClient(tc, tr), clientChecks)
	sameInterfaces(t, "plain client", plainClient{tc}, wrapClient(plainClient{tc}, tr), clientChecks)
	if !is[client.EpochSetter](wrapClient(tc, tr)) {
		t.Error("traced tcp client lost client.EpochSetter")
	}

	svcChecks := map[string]func(any) bool{
		"client.EpochSetter": is[client.EpochSetter],
		"EpochGuard":         is[epochGuarder],
	}
	eng := nodeengine.New(memstore.New())
	sameInterfaces(t, "engine", eng, wrapService(eng, tr), svcChecks)
	sameInterfaces(t, "plain service", plainService{eng}, wrapService(plainService{eng}, tr), svcChecks)
	if !is[client.EpochSetter](wrapService(eng, tr)) || !is[epochGuarder](wrapService(eng, tr)) {
		t.Error("traced engine service lost client.EpochSetter or EpochGuard")
	}

	storeChecks := map[string]func(any) bool{
		"nodeengine.BatchStore": is[nodeengine.BatchStore],
		"nodeengine.Scanner":    is[nodeengine.Scanner],
	}
	ds, err := diskstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	gc, err := diskstore.Open(t.TempDir(), diskstore.WithGroupCommit(time.Millisecond, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer gc.Close()
	ms := memstore.New()
	sameInterfaces(t, "diskstore", ds, wrapStore(ds, tr), storeChecks)
	sameInterfaces(t, "group-commit diskstore", gc, wrapStore(gc, tr), storeChecks)
	sameInterfaces(t, "memstore", ms, wrapStore(ms, tr), storeChecks)
	sameInterfaces(t, "plain store", plainStore{ds}, wrapStore(plainStore{ds}, tr), storeChecks)
	if !is[nodeengine.Scanner](wrapStore(ds, tr)) {
		t.Error("traced diskstore lost nodeengine.Scanner")
	}
	for _, st := range []*diskstore.Store{ds, gc} {
		bs, ok := wrapStore(st, tr).(nodeengine.BatchStore)
		if !ok || bs.Batching() != st.Batching() {
			t.Errorf("traced diskstore: BatchStore %v, Batching forwarded %v", ok, ok && bs.Batching() == st.Batching())
		}
	}
}

// TestGrowAddrsClientsAreWrapped pins that nodes added by a live
// reconfiguration are traced like the Open-time ones.
func TestGrowAddrsClientsAreWrapped(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	f, err := bootFleet(ctx, codeN, 1, 4*kib, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	tb := &tracedBackend{NetBackend: f.backend, tr: tr}
	cls, err := tb.GrowAddrs(ctx, addrsOf(f.spares))
	if err != nil {
		t.Fatal(err)
	}
	if len(cls) != 1 || !is[*tracedEpochClient](cls[0]) {
		t.Fatalf("GrowAddrs returned %T, want a traced client", cls[0])
	}
}

// tiny shrinks a workload to a few objects for the smoke tests.
func tiny(w *workload) *workload {
	c := *w
	c.objects = func(int) int { return 12 }
	c.setups = 2
	return &c
}

// TestTracedSmoke runs a short traced window of every workload and
// checks the spans: every wrapped layer recorded some, each op's RPC
// spans lie within the op, self times are non-negative, and each RPC
// kind the workload issues shows up per op.
func TestTracedSmoke(t *testing.T) {
	issued := map[string][]kind{
		"get-384k":          {kReadVersions, kReadChunk},
		"update-4k":         {kReadVersions, kReadChunk, kPutChunk, kCompareAndAdd},
		"recode-under-load": {kReadVersions, kReadChunk},
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			ctx := context.Background()
			cfg := runConfig{w: w, seed: 7, seconds: 1, root: t.TempDir()}
			in := genInputs(w, cfg.seed, cfg.seconds)
			tr := newTracer()
			f, _, _, err := setUp(ctx, cfg, in, tr)
			if err != nil {
				t.Fatal(err)
			}
			tr.reset()
			win, err := w.window(ctx, f, in, 300*time.Millisecond)
			if cerr := f.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if win.failed != 0 || win.ops == 0 {
				t.Fatalf("window: %d ops, %d failed: %v", win.ops, win.failed, win.failures)
			}
			for l := layerOp; l < numLayers; l++ {
				if len(tr.spans(l)) == 0 {
					t.Errorf("layer %s recorded no spans", layerNames[l])
				}
			}
			parents := map[uint64]span{}
			for _, s := range tr.spans(layerOp) {
				parents[s.id] = s
			}
			children := map[uint64][]span{}
			for _, s := range tr.spans(layerRPC) {
				p, ok := parents[s.parent]
				if !ok {
					continue
				}
				if s.start < p.start || s.end > p.end {
					t.Fatalf("%s span [%d,%d] outside its parent %s [%d,%d]",
						kindNames[s.kind], s.start, s.end, kindNames[p.kind], p.start, p.end)
				}
				children[s.parent] = append(children[s.parent], s)
			}
			for id, p := range parents {
				if self := p.dur() - union(children[id]); self < 0 {
					t.Fatalf("op %s has negative self time %d ns", kindNames[p.kind], self)
				}
			}
			a := analyse(tr, win)
			for _, k := range issued[w.name] {
				if a.opRPCs[k] == 0 {
					t.Errorf("core.rpcs_per_op.%s = 0, the workload issues it", kindNames[k])
				}
			}
			if w.name == "recode-under-load" {
				if a.drainBusyNs <= 0 || a.rpcKind[kPutChunk] == 0 {
					t.Errorf("drain: busy %d ns, %d PutChunk spans; want both > 0", a.drainBusyNs, a.rpcKind[kPutChunk])
				}
			}
		})
	}
}

// TestReportsMatchBenchmarkJSON runs every workload at a tiny size in
// both modes and checks the metric names against BENCHMARK.json:
// untraced runs print every end-to-end metric, traced runs every
// per-layer one, all correct.
func TestReportsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
				cfg := runConfig{w: w, seed: 3, seconds: 1, root: t.TempDir()}
				run := runUntraced
				if trace == 1 {
					run = runTraced
				}
				r, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("trace %d: correct %v, %d of %d failed: %v", trace, r.Correct, r.Failed, r.Attempted, r.failures)
				}
				var got, exp []string
				for name, m := range r.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if len(got) != len(exp) {
					t.Fatalf("trace %d: metrics\n%v\nwant\n%v", trace, got, exp)
				}
				for i := range got {
					if got[i] != exp[i] {
						t.Fatalf("trace %d: metric %q, want %q", trace, got[i], exp[i])
					}
				}
			}
		})
	}
}
