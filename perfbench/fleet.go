package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"trapquorum"
	"trapquorum/client"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// node is one storage daemon of the loopback fleet: memstore chunk
// store, node engine and TCP server in this process.
type node struct {
	addr   string
	engine *nodeengine.Engine
	srv    *tcp.NodeServer
	served chan error // Serve's result
}

// startNode boots one node on a fresh loopback port. With a tracer the
// chunk store, the engine's tcp.Service surface and the listener are
// wrapped; without one nothing is.
func startNode(tr *tracer) (*node, error) {
	var st nodeengine.ChunkStore = memstore.New()
	if tr != nil {
		st = wrapStore(st, tr)
	}
	eng := nodeengine.New(st)
	var svc tcp.Service = eng
	if tr != nil {
		svc = wrapService(eng, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	if tr != nil {
		ln = countingListener{Listener: ln, n: &tr.wireBytes}
	}
	n := &node{addr: ln.Addr().String(), engine: eng, srv: tcp.NewServer(svc), served: make(chan error, 1)}
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// stop closes the server, waits for Serve to return and closes the
// store.
func (n *node) stop() error {
	err := n.srv.Close()
	if serr := <-n.served; serr != nil && err == nil {
		err = serr
	}
	if cerr := n.engine.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// fleet is a running loopback cluster and the store opened over it.
type fleet struct {
	nodes   []*node
	spares  []*node // booted but not in the cluster until a Reconfigure adds them
	backend *trapquorum.NetBackend
	store   *trapquorum.ObjectStore
	tr      *tracer
}

// geometry is the code every workload opens the store with.
const (
	codeN, codeK = 9, 6
)

// bootFleet starts n+spares nodes and opens the (9,6) store over the
// first n through a NetBackend with default options.
func bootFleet(ctx context.Context, n, spares, blockSize int, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr}
	for i := 0; i < n+spares; i++ {
		nd, err := startNode(tr)
		if err != nil {
			f.close()
			return nil, err
		}
		if i < n {
			f.nodes = append(f.nodes, nd)
		} else {
			f.spares = append(f.spares, nd)
		}
	}
	f.backend = trapquorum.NewNetBackend(addrsOf(f.nodes))
	var backend trapquorum.Backend = f.backend
	if tr != nil {
		backend = &tracedBackend{NetBackend: f.backend, tr: tr}
	}
	st, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(backend),
		trapquorum.WithCode(codeN, codeK),
		trapquorum.WithTrapezoid(2, 1, 1, 2),
		trapquorum.WithBlockSize(blockSize))
	if err != nil {
		f.close()
		return nil, err
	}
	f.store = st
	return f, nil
}

func addrsOf(nodes []*node) []string {
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	return addrs
}

// engines returns every node engine, spares included.
func (f *fleet) engines() []*nodeengine.Engine {
	var es []*nodeengine.Engine
	for _, nd := range append(append([]*node(nil), f.nodes...), f.spares...) {
		es = append(es, nd.engine)
	}
	return es
}

// close shuts the store and every node down.
func (f *fleet) close() error {
	var errs []error
	if f.store != nil {
		errs = append(errs, f.store.Close())
	}
	for _, nd := range append(append([]*node(nil), f.nodes...), f.spares...) {
		errs = append(errs, nd.stop())
	}
	return errors.Join(errs...)
}

// preload Puts every object with `workers` closed-loop writers and
// returns each Put's latency.
func preload(ctx context.Context, st *trapquorum.ObjectStore, keys []string, content [][]byte, workers int) ([]time.Duration, error) {
	lat := make([]time.Duration, len(keys))
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < len(keys); i += workers {
				t := time.Now()
				if err := st.Put(ctx, keys[i], content[i]); err != nil {
					errc <- fmt.Errorf("preload Put %s: %w", keys[i], err)
					return
				}
				lat[i] = time.Since(t)
			}
			errc <- nil
		}(w)
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return lat, first
}

// ensure the tracing wrappers still satisfy what the program consumes.
var (
	_ trapquorum.Backend = (*tracedBackend)(nil)
	_ client.NodeClient  = (*tracedNode)(nil)
	_ tcp.Service        = (*tracedService)(nil)
)
