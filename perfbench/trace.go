package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum"
	"trapquorum/client"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// layer is the boundary a span was recorded at.
type layer uint8

const (
	layerOp     layer = iota // a foreground ObjectStore call, or the drain
	layerRPC                 // client side: one client.NodeClient call
	layerServer              // server side: one tcp.Service call on the engine
	layerStore               // one nodeengine.ChunkStore call
	numLayers
)

var layerNames = [numLayers]string{"op", "rpc", "server", "store"}

// kind names the call a span covers. The RPC kinds serve both the
// client and the server layer.
type kind uint8

const (
	kReadChunk kind = iota
	kReadVersions
	kPutChunk
	kPutChunkIfFresher
	kCompareAndPut
	kCompareAndAdd
	kDeleteChunk
	kSetEpoch
	kEpochState
	kHasChunk
	kWipe
	kGet // chunk-store kinds
	kPut
	kDelete
	kStoreWipe
	kLen
	kScan
	kBatchWait
	kOpGet // op kinds
	kOpReadAt
	kOpWriteAt
	kOpDrain
	numKinds
)

var kindNames = [numKinds]string{
	"ReadChunk", "ReadVersions", "PutChunk", "PutChunkIfFresher", "CompareAndPut",
	"CompareAndAdd", "DeleteChunk", "SetEpoch", "EpochState", "HasChunk", "Wipe",
	"Get", "Put", "Delete", "Wipe", "Len", "Scan", "BatchWait",
	"Get", "ReadAt", "WriteAt", "Drain",
}

// rpcKinds are the client.NodeClient methods, in interface order.
var rpcKinds = []kind{kReadChunk, kReadVersions, kPutChunk, kPutChunkIfFresher, kCompareAndPut, kCompareAndAdd, kDeleteChunk}

type outcome uint8

const (
	outOK outcome = iota
	outCancelled
	outError
)

func outcomeOf(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, context.Canceled):
		return outCancelled
	default:
		return outError
	}
}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's base. Parent is 0 for spans without a known
// cause: server and store spans, until the wire carries a request id.
type span struct {
	id, parent uint64
	start, end int64
	bytes      int64
	layer      layer
	kind       kind
	out        outcome
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory, one log per layer so the layers
// do not contend on a single lock.
type tracer struct {
	base time.Time
	ids  atomic.Uint64
	logs [numLayers]struct {
		mu    sync.Mutex
		spans []span
	}
	wireBytes atomic.Int64 // bytes the node servers read and wrote

	// The first maxPuts chunk-store Puts after reset, copied for the
	// diskstore probe.
	putMu   sync.Mutex
	maxPuts int
	puts    []capturedPut
}

type capturedPut struct {
	id       client.ChunkID
	data     []byte
	versions []uint64
	meta     nodeengine.Meta
}

func (t *tracer) capture(id client.ChunkID, data []byte, versions []uint64, meta nodeengine.Meta) {
	t.putMu.Lock()
	defer t.putMu.Unlock()
	if len(t.puts) >= t.maxPuts {
		return
	}
	meta.Rec = append([]client.BlockSum(nil), meta.Rec...)
	t.puts = append(t.puts, capturedPut{id, append([]byte(nil), data...), append([]uint64(nil), versions...), meta})
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	if s.id == 0 {
		s.id = t.ids.Add(1)
	}
	l := &t.logs[s.layer]
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// reset drops every span recorded so far (the set-up's) and the wire
// byte count.
func (t *tracer) reset() {
	for i := range t.logs {
		l := &t.logs[i]
		l.mu.Lock()
		l.spans = l.spans[:0]
		l.mu.Unlock()
	}
	t.wireBytes.Store(0)
}

// spans returns a layer's log. Call it only once recording has ended.
func (t *tracer) spans(l layer) []span { return t.logs[l].spans }

// writeTSV writes every span, one per line, to path.
func (t *tracer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(w, "id\tparent\tlayer\tkind\tstart_ns\tend_ns\toutcome\tbytes")
	for l := layer(0); l < numLayers; l++ {
		for _, s := range t.spans(l) {
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, layerNames[l], kindNames[s.kind], s.start, s.end, s.out, s.bytes)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// withSpan tags ctx with the id of the op span its RPCs belong to.
func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// ---- client side: trapquorum.Backend and client.NodeClient ----

// tracedBackend wraps a NetBackend so every node client it hands out,
// at Open and at GrowAddrs, records RPC spans. Embedding keeps every
// optional Backend extension NetBackend implements (NodeGater,
// NodeProber, LinkReporter, ResilienceReporter, LatencyReporter,
// AddrGrowableBackend), and adds none it lacks.
type tracedBackend struct {
	*trapquorum.NetBackend
	tr *tracer
}

func (b *tracedBackend) Open(ctx context.Context, n int) ([]client.NodeClient, error) {
	cls, err := b.NetBackend.Open(ctx, n)
	return wrapClients(cls, b.tr), err
}

func (b *tracedBackend) GrowAddrs(ctx context.Context, addrs []string) ([]client.NodeClient, error) {
	cls, err := b.NetBackend.GrowAddrs(ctx, addrs)
	return wrapClients(cls, b.tr), err
}

func wrapClients(cls []client.NodeClient, tr *tracer) []client.NodeClient {
	for i, cl := range cls {
		cls[i] = wrapClient(cl, tr)
	}
	return cls
}

// wrapClient returns a traced client that implements client.EpochSetter
// exactly when cl does.
func wrapClient(cl client.NodeClient, tr *tracer) client.NodeClient {
	n := &tracedNode{inner: cl, tr: tr, layer: layerRPC}
	if es, ok := cl.(client.EpochSetter); ok {
		return &tracedEpochClient{n, epochSpans{n, es}}
	}
	return n
}

type tracedEpochClient struct {
	*tracedNode
	epochSpans
}

// tracedNode records one span per client.NodeClient call at its
// layer: a client-side RPC, or the engine call under a server. Only a
// client-side ctx carries an op span id; the server's has none, so
// server spans get no parent.
type tracedNode struct {
	inner client.NodeClient
	tr    *tracer
	layer layer
}

func (c *tracedNode) done(ctx context.Context, k kind, start, n int64, err error) {
	c.tr.record(span{parent: spanOf(ctx), start: start, end: c.tr.now(), bytes: n, layer: c.layer, kind: k, out: outcomeOf(err)})
}

func (c *tracedNode) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	t := c.tr.now()
	ch, err := c.inner.ReadChunk(ctx, id)
	c.done(ctx, kReadChunk, t, int64(len(ch.Data)), err)
	return ch, err
}

func (c *tracedNode) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	t := c.tr.now()
	v, s, err := c.inner.ReadVersions(ctx, id)
	c.done(ctx, kReadVersions, t, 0, err)
	return v, s, err
}

func (c *tracedNode) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	t := c.tr.now()
	err := c.inner.PutChunk(ctx, id, data, versions, sums...)
	c.done(ctx, kPutChunk, t, int64(len(data)), err)
	return err
}

func (c *tracedNode) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	t := c.tr.now()
	err := c.inner.PutChunkIfFresher(ctx, id, data, versions, sums...)
	c.done(ctx, kPutChunkIfFresher, t, int64(len(data)), err)
	return err
}

func (c *tracedNode) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	t := c.tr.now()
	err := c.inner.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
	c.done(ctx, kCompareAndPut, t, int64(len(data)), err)
	return err
}

func (c *tracedNode) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	t := c.tr.now()
	err := c.inner.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
	c.done(ctx, kCompareAndAdd, t, int64(len(delta)), err)
	return err
}

func (c *tracedNode) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	t := c.tr.now()
	err := c.inner.DeleteChunk(ctx, id)
	c.done(ctx, kDeleteChunk, t, 0, err)
	return err
}

// epochSpans traces client.EpochSetter calls at its node's layer.
type epochSpans struct {
	n  *tracedNode
	es client.EpochSetter
}

func (e epochSpans) SetEpoch(ctx context.Context, installed, retired uint64, blob []byte) error {
	t := e.n.tr.now()
	err := e.es.SetEpoch(ctx, installed, retired, blob)
	e.n.done(ctx, kSetEpoch, t, int64(len(blob)), err)
	return err
}

func (e epochSpans) EpochState(ctx context.Context) (uint64, uint64, []byte, error) {
	t := e.n.tr.now()
	installed, retired, blob, err := e.es.EpochState(ctx)
	e.n.done(ctx, kEpochState, t, int64(len(blob)), err)
	return installed, retired, blob, err
}

// ---- server side: tcp.Service around the node engine ----

// epochGuarder is the stale-epoch check tcp.NodeServer type-asserts on
// its Service.
type epochGuarder interface {
	EpochGuard(tag uint64) error
}

// guardPass forwards the epoch guard untraced: it is a cached atomic
// read, not a call worth a span.
type guardPass struct{ g epochGuarder }

func (p guardPass) EpochGuard(tag uint64) error { return p.g.EpochGuard(tag) }

// wrapService returns a traced tcp.Service that implements
// client.EpochSetter and the epoch guard exactly when svc does.
func wrapService(svc tcp.Service, tr *tracer) tcp.Service {
	s := &tracedService{&tracedNode{inner: svc, tr: tr, layer: layerServer}, svc}
	es, isES := svc.(client.EpochSetter)
	g, isG := svc.(epochGuarder)
	switch {
	case isES && isG:
		return &svcEpochGuard{s, epochSpans{s.tracedNode, es}, guardPass{g}}
	case isES:
		return &svcEpoch{s, epochSpans{s.tracedNode, es}}
	case isG:
		return &svcGuard{s, guardPass{g}}
	}
	return s
}

// tracedService adds the maintenance calls of tcp.Service.
type tracedService struct {
	*tracedNode
	svc tcp.Service
}

func (s *tracedService) HasChunk(ctx context.Context, id client.ChunkID) (bool, error) {
	t := s.tr.now()
	ok, err := s.svc.HasChunk(ctx, id)
	s.done(ctx, kHasChunk, t, 0, err)
	return ok, err
}

func (s *tracedService) Wipe(ctx context.Context) error {
	t := s.tr.now()
	err := s.svc.Wipe(ctx)
	s.done(ctx, kWipe, t, 0, err)
	return err
}

type svcEpoch struct {
	*tracedService
	epochSpans
}

type svcGuard struct {
	*tracedService
	guardPass
}

type svcEpochGuard struct {
	*tracedService
	epochSpans
	guardPass
}

// ---- storage: nodeengine.ChunkStore under the engine ----

// wrapStore returns a traced ChunkStore that implements
// nodeengine.BatchStore and nodeengine.Scanner exactly when st does.
func wrapStore(st nodeengine.ChunkStore, tr *tracer) nodeengine.ChunkStore {
	s := &tracedStore{inner: st, tr: tr}
	bs, isB := st.(nodeengine.BatchStore)
	sc, isS := st.(nodeengine.Scanner)
	switch {
	case isB && isS:
		return &storeBatchScan{&storeBatch{s, bs}, scanSpans{s, sc}}
	case isB:
		return &storeBatch{s, bs}
	case isS:
		return &storeScan{s, scanSpans{s, sc}}
	}
	return s
}

type tracedStore struct {
	inner nodeengine.ChunkStore
	tr    *tracer
}

func (s *tracedStore) done(k kind, start, n int64, err error) {
	s.tr.record(span{start: start, end: s.tr.now(), bytes: n, layer: layerStore, kind: k, out: outcomeOf(err)})
}

func (s *tracedStore) Get(id client.ChunkID) ([]byte, []uint64, nodeengine.Meta, bool, error) {
	t := s.tr.now()
	data, versions, meta, ok, err := s.inner.Get(id)
	s.done(kGet, t, int64(len(data)), err)
	return data, versions, meta, ok, err
}

func (s *tracedStore) Put(id client.ChunkID, data []byte, versions []uint64, meta nodeengine.Meta) error {
	s.tr.capture(id, data, versions, meta)
	t := s.tr.now()
	err := s.inner.Put(id, data, versions, meta)
	s.done(kPut, t, int64(len(data)), err)
	return err
}

func (s *tracedStore) Delete(id client.ChunkID) error {
	t := s.tr.now()
	err := s.inner.Delete(id)
	s.done(kDelete, t, 0, err)
	return err
}

func (s *tracedStore) Wipe() error {
	t := s.tr.now()
	err := s.inner.Wipe()
	s.done(kStoreWipe, t, 0, err)
	return err
}

func (s *tracedStore) Len() (int, error) {
	t := s.tr.now()
	n, err := s.inner.Len()
	s.done(kLen, t, 0, err)
	return n, err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

// scanSpans traces nodeengine.Scanner calls.
type scanSpans struct {
	s  *tracedStore
	sc nodeengine.Scanner
}

func (x scanSpans) Scan() ([]client.ChunkID, error) {
	t := x.s.tr.now()
	ids, err := x.sc.Scan()
	x.s.done(kScan, t, 0, err)
	return ids, err
}

type storeScan struct {
	*tracedStore
	scanSpans
}

// storeBatch traces the staged mutations as their store kind and the
// wait for durability as a BatchWait span.
type storeBatch struct {
	*tracedStore
	bs nodeengine.BatchStore
}

func (s *storeBatch) Batching() bool { return s.bs.Batching() }

func (s *storeBatch) staged(k kind, t, n int64, wait func() error, err error) (func() error, error) {
	s.done(k, t, n, err)
	if err != nil {
		return wait, err
	}
	return func() error {
		t := s.tr.now()
		err := wait()
		s.done(kBatchWait, t, 0, err)
		return err
	}, nil
}

func (s *storeBatch) PutBatched(id client.ChunkID, data []byte, versions []uint64, meta nodeengine.Meta) (func() error, error) {
	t := s.tr.now()
	wait, err := s.bs.PutBatched(id, data, versions, meta)
	return s.staged(kPut, t, int64(len(data)), wait, err)
}

func (s *storeBatch) DeleteBatched(id client.ChunkID) (func() error, error) {
	t := s.tr.now()
	wait, err := s.bs.DeleteBatched(id)
	return s.staged(kDelete, t, 0, wait, err)
}

func (s *storeBatch) WipeBatched() (func() error, error) {
	t := s.tr.now()
	wait, err := s.bs.WipeBatched()
	return s.staged(kStoreWipe, t, 0, wait, err)
}

type storeBatchScan struct {
	*storeBatch
	scanSpans
}

// ---- wire bytes: net.Listener under each node server ----

// countingListener counts every byte the server's connections read
// and write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
