package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"trapquorum"
)

// workload is one input set: fleet shape, preload and foreground mix.
// Every workload opens code (9,6) with trapezoid (2,1,1,2).
type workload struct {
	name      string
	nodes     int
	spares    int
	blockSize int
	objSize   int
	objects   func(seconds int) int
	slices    int  // the window is cut into this many equal slices; see sliceMedian
	clients   int  // closed-loop foreground clients
	mixed     bool // 50% WriteAt / 50% ReadAt on owned keys, else 100% Get
	setups    int  // set-ups per untraced run; setup_s is their median
	window    func(ctx context.Context, f *fleet, in *inputs, d time.Duration) (*window, error)
}

const kib = 1 << 10

var workloads = []*workload{
	{
		// Per-block version-check rounds, wire frame copies and GC: the
		// read path of ROADMAP item 1.
		name:  "get-384k",
		nodes: codeN, blockSize: 64 * kib, objSize: 384 * kib,
		objects: func(int) int { return 192 },
		clients: 2, setups: 5, slices: 10,
		window: getWindow,
	},
	{
		// One Algorithm 1 quorum write (data node put, parity deltas)
		// or one single-block read per op.
		name:  "update-4k",
		nodes: codeN, blockSize: 4 * kib, objSize: 96 * kib,
		objects: func(int) int { return 256 },
		clients: 2, setups: 5, slices: 10, mixed: true,
		window: updateWindow,
	},
	{
		// The migration drain of a live recode (ROADMAP item 4) and
		// the foreground cost it imposes.
		name:  "recode-under-load",
		nodes: codeN, spares: 15 - codeN, blockSize: 4 * kib, objSize: 64 * kib,
		objects: func(seconds int) int { return recodeObjectsPerSecond * seconds },
		clients: 1, setups: 5, slices: 5,
		window: recodeWindow,
	},
}

// recodeObjectsPerSecond sizes the drain so it lasts about --seconds
// at the migration rate measured when the benchmark was written.
const recodeObjectsPerSecond = 85

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything generated from the seed before timing: the
// objects' content and each client's operation sequence.
type inputs struct {
	keys      []string
	blockSize int
	content   [][]byte // update-4k keeps it as the exact shadow copy
	seqs      [][]op   // per client, replayed cyclically
	// payloads are update-4k's WriteAt bodies.
	payloads [][]byte
	// check is a seeded sample of objects: update-4k scrubs them after
	// its window, recode-under-load reads them back after the drain.
	check []int
}

// op is one pre-generated foreground operation.
type op struct {
	key, block, payload int
	write               bool
}

const seqLen = 1 << 16

func genInputs(w *workload, seed int64, seconds int) *inputs {
	r := rand.New(rand.NewSource(seed))
	n := w.objects(seconds)
	in := &inputs{keys: make([]string, n), content: make([][]byte, n), blockSize: w.blockSize}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("%s/%05d", w.name, i)
		in.content[i] = make([]byte, w.objSize)
		r.Read(in.content[i])
	}
	blocks := w.objSize / w.blockSize
	for c := 0; c < w.clients; c++ {
		seq := make([]op, seqLen)
		for i := range seq {
			o := op{key: r.Intn(n)}
			if w.mixed {
				// Client c owns keys ≡ c (mod clients), so shadow
				// copies need no locking.
				o.key = o.key - o.key%w.clients + c
				if o.key >= n {
					o.key -= w.clients
				}
				o.block = r.Intn(blocks)
				o.write = r.Intn(2) == 0
				o.payload = r.Intn(64)
			}
			seq[i] = o
		}
		in.seqs = append(in.seqs, seq)
	}
	if w.mixed {
		for i := 0; i < 64; i++ {
			p := make([]byte, w.blockSize)
			r.Read(p)
			in.payloads = append(in.payloads, p)
		}
	}
	in.check = r.Perm(n)[:min(n, 32)]
	return in
}

// window is what one timed window measured.
type window struct {
	reads, writes     []sample // ops that succeeded
	attempted, failed int
	ops               int           // foreground ops counted in ops_s
	start             time.Time     // when the window began
	wall              time.Duration // the window's length
	opBytes           float64       // logical bytes one foreground op moves
	failures          []string      // the first few failure messages
	// recode-under-load only.
	drain      time.Duration
	drainBytes int64
	objects    int
	retries    int
	drainSpan  uint64
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// clientResult is one closed-loop client's share of a window.
type clientResult struct {
	reads, writes     []sample
	attempted, failed int
	failures          []string
}

// sample is one successful op: when it was issued, relative to the
// window's start, and how long it took.
type sample struct{ at, lat time.Duration }

func (c *clientResult) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// timedOp runs one foreground call, as an op span when tracing.
func timedOp(ctx context.Context, tr *tracer, k kind, call func(ctx context.Context) error) (time.Duration, error) {
	if tr == nil {
		t := time.Now()
		err := call(ctx)
		return time.Since(t), err
	}
	id := tr.ids.Add(1)
	start := tr.now()
	err := call(withSpan(ctx, id))
	end := tr.now()
	tr.record(span{id: id, start: start, end: end, layer: layerOp, kind: k, out: outcomeOf(err)})
	return time.Duration(end - start), err
}

// runClients runs one closed loop per pre-generated sequence until
// stop returns true, and merges their results. step performs op i of
// client c.
func runClients(in *inputs, stop func() bool, step func(c int, o op, res *clientResult)) *window {
	res := make([]clientResult, len(in.seqs))
	var wg sync.WaitGroup
	for c := range in.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := in.seqs[c]
			for i := 0; !stop(); i++ {
				res[c].attempted++
				step(c, seq[i%len(seq)], &res[c])
			}
		}(c)
	}
	wg.Wait()
	w := &window{}
	for _, r := range res {
		w.reads = append(w.reads, r.reads...)
		w.writes = append(w.writes, r.writes...)
		w.attempted += r.attempted
		w.failed += r.failed
		for _, msg := range r.failures {
			if len(w.failures) < 5 {
				w.failures = append(w.failures, msg)
			}
		}
	}
	return w
}

// until returns a stop predicate that turns true at deadline.
func until(deadline time.Time) func() bool {
	return func() bool { return !time.Now().Before(deadline) }
}

// getWindow: every client Gets uniformly chosen objects and compares
// each byte with the generated content.
func getWindow(ctx context.Context, f *fleet, in *inputs, d time.Duration) (*window, error) {
	start := time.Now()
	w := runClients(in, until(start.Add(d)), func(_ int, o op, res *clientResult) {
		at := time.Since(start)
		var got []byte
		lat, err := timedOp(ctx, f.tr, kOpGet, func(ctx context.Context) error {
			var err error
			got, err = f.store.Get(ctx, in.keys[o.key])
			return err
		})
		switch {
		case err != nil:
			res.fail("Get %s: %v", in.keys[o.key], err)
		case !bytes.Equal(got, in.content[o.key]):
			res.fail("Get %s: content mismatch", in.keys[o.key])
		default:
			res.reads = append(res.reads, sample{at, lat})
		}
	})
	w.start, w.wall = start, time.Since(start)
	w.ops = len(w.reads)
	w.opBytes = float64(len(in.content[0]))
	return w, nil
}

// updateWindow: each client owns a disjoint key set and alternates
// block-aligned 4 KiB WriteAt and ReadAt on it by its sequence,
// keeping in.content as the exact shadow copy. A seeded sample of
// objects is scrubbed afterwards.
func updateWindow(ctx context.Context, f *fleet, in *inputs, d time.Duration) (*window, error) {
	bs := in.blockSize
	start := time.Now()
	w := runClients(in, until(start.Add(d)), func(_ int, o op, res *clientResult) {
		at := time.Since(start)
		key, off := in.keys[o.key], o.block*bs
		shadow := in.content[o.key][off : off+bs]
		if o.write {
			p := in.payloads[o.payload]
			lat, err := timedOp(ctx, f.tr, kOpWriteAt, func(ctx context.Context) error {
				return f.store.WriteAt(ctx, key, off, p)
			})
			if err != nil {
				res.fail("WriteAt %s@%d: %v", key, off, err)
				return
			}
			copy(shadow, p)
			res.writes = append(res.writes, sample{at, lat})
			return
		}
		var got []byte
		lat, err := timedOp(ctx, f.tr, kOpReadAt, func(ctx context.Context) error {
			var err error
			got, err = f.store.ReadAt(ctx, key, off, bs)
			return err
		})
		switch {
		case err != nil:
			res.fail("ReadAt %s@%d: %v", key, off, err)
		case !bytes.Equal(got, shadow):
			res.fail("ReadAt %s@%d: content mismatch", key, off)
		default:
			res.reads = append(res.reads, sample{at, lat})
		}
	})
	w.start, w.wall = start, time.Since(start)
	w.ops = len(w.reads) + len(w.writes)
	w.opBytes = float64(bs)
	for _, i := range in.check {
		reports, err := f.store.Scrub(ctx, in.keys[i])
		if err != nil {
			w.fail("Scrub %s: %v", in.keys[i], err)
			continue
		}
		for _, rep := range reports {
			if !rep.Healthy {
				w.fail("Scrub %s: stripe %d unhealthy: %+v", in.keys[i], rep.Stripe, rep)
			}
		}
	}
	return w, nil
}

// recodeTarget is the live recode every recode-under-load run makes.
var recodeTarget = trapquorum.Reconfig{N: 15, K: 8, TrapezoidA: 2, TrapezoidB: 3, TrapezoidH: 1, W: 3}

// recodeWindow: one client runs verified Gets while Reconfigure
// drains every object onto the (15,8) placement over the spares. Only
// reads issued while the drain runs count; the window is the drain.
func recodeWindow(ctx context.Context, f *fleet, in *inputs, _ time.Duration) (*window, error) {
	var (
		mu         sync.Mutex
		drainStart time.Time
		drainEnd   time.Time
		started    = make(chan struct{})
		done       = make(chan struct{})
	)
	inDrain := func(t time.Time) bool {
		mu.Lock()
		defer mu.Unlock()
		return !drainStart.IsZero() && !t.Before(drainStart) && (drainEnd.IsZero() || t.Before(drainEnd))
	}
	fg := make(chan *window, 1)
	go func() {
		<-started
		fg <- runClients(in, func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}, func(_ int, o op, res *clientResult) {
			issued := time.Now()
			var got []byte
			lat, err := timedOp(ctx, f.tr, kOpGet, func(ctx context.Context) error {
				var err error
				got, err = f.store.Get(ctx, in.keys[o.key])
				return err
			})
			if !inDrain(issued) {
				res.attempted-- // issued after the drain ended
				return
			}
			switch {
			case err != nil:
				res.fail("Get %s during drain: %v", in.keys[o.key], err)
			case !bytes.Equal(got, in.content[o.key]):
				res.fail("Get %s during drain: content mismatch", in.keys[o.key])
			default:
				res.reads = append(res.reads, sample{issued.Sub(drainStart), lat})
			}
		})
	}()

	rc := recodeTarget
	for _, nd := range f.spares {
		rc.AddNodeAddrs = append(rc.AddNodeAddrs, nd.addr)
	}
	dctx := ctx
	var drainID uint64
	var t0 int64
	if f.tr != nil {
		drainID = f.tr.ids.Add(1)
		dctx = withSpan(ctx, drainID)
		t0 = f.tr.now()
	}
	// Sample the drain's progress while it runs: the counters reset
	// when it completes.
	var last trapquorum.MigrationReport
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if m := f.store.Health().Migration; m.Active {
					mu.Lock()
					last = m
					mu.Unlock()
				}
			}
		}
	}()
	mu.Lock()
	drainStart = time.Now()
	mu.Unlock()
	close(started)
	err := f.store.Reconfigure(dctx, rc)
	mu.Lock()
	drainEnd = time.Now()
	mu.Unlock()
	close(done)
	<-sampled
	if f.tr != nil {
		f.tr.record(span{id: drainID, start: t0, end: f.tr.now(), layer: layerOp, kind: kOpDrain, out: outcomeOf(err)})
	}
	w := <-fg
	w.start, w.wall = drainStart, drainEnd.Sub(drainStart)
	w.drain = w.wall
	w.drainSpan = drainID
	w.ops = len(w.reads)
	w.objects = len(in.keys)
	w.drainBytes = int64(len(in.keys) * len(in.content[0])) // every object is re-placed once
	w.retries = last.Failures
	w.attempted++ // the Reconfigure itself
	if err != nil {
		w.fail("Reconfigure: %v", err)
		return w, nil
	}
	if n, k := f.store.CodeParams(); n != 15 || k != 8 {
		w.fail("after Reconfigure: code (%d,%d), want (15,8)", n, k)
	}
	if m := f.store.Health().Migration; m.Active || m.Epoch != m.Retired+1 {
		w.fail("after Reconfigure: not converged: %+v", m)
	}
	for _, i := range in.check {
		w.attempted++
		got, err := f.store.Get(ctx, in.keys[i])
		if err != nil || !bytes.Equal(got, in.content[i]) {
			w.fail("Get %s after drain: %v (mismatch=%v)", in.keys[i], err, err == nil)
		}
	}
	return w, nil
}
