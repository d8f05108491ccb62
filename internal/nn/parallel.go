package nn

import (
	"fmt"
	"sync"

	"hetgmp/internal/tensor"
)

// DefaultRangeRows is the fixed row-range width the batch-parallel dense
// path shards every mini-batch into. It is a constant, not a tunable: the
// per-element gradient reduction order is (shard 0 + shard 1 + ...), so the
// grid geometry is part of the numerical result. A serial walk (nil pool)
// and a pool of any size run the same grid, which is what keeps them
// bit-identical.
const DefaultRangeRows = 64

// Pool is a shared compute pool for batch-parallel forward/backward. Workers
// are persistent goroutines; Run fans a fixed index space out across them
// with the caller participating (try-send, inline fallback), so nested and
// concurrent Run calls from several engine workers cannot deadlock even when
// every pool goroutine is busy.
//
// A nil *Pool is valid and means "execute inline on the caller".
type Pool struct {
	tasks chan func()
	quit  chan struct{}
	once  sync.Once
}

// NewPool starts a pool with the given number of worker goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan func()), quit: make(chan struct{})}
	for i := 0; i < workers; i++ {
		go p.loop()
	}
	return p
}

func (p *Pool) loop() {
	for {
		select {
		case f := <-p.tasks:
			f()
		case <-p.quit:
			return
		}
	}
}

// Close stops the pool goroutines. Idempotent. Run calls after Close fall
// back to inline execution, so a late caller degrades, not deadlocks.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
}

// Run executes fn(0) … fn(n-1) and returns once all calls finished. Indices
// not picked up by an idle pool goroutine run inline on the caller. The
// assignment of index to goroutine is nondeterministic; callers must make fn
// write only to index-owned state so the result is order-independent. A
// panic in any fn is re-raised on the caller after the fan-out drains.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
			}
			wg.Done()
		}()
		fn(i)
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		task := func() { call(i) }
		select {
		case p.tasks <- task:
		case <-p.quit:
			call(i)
		default:
			call(i)
		}
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// ---------------------------------------------------------------------------
// Batch-parallel Network wrapper

// Parallel wraps a Network with a batch-parallel forward/backward: each
// mini-batch is split on the fixed DefaultRangeRows grid, every range runs
// on its own per-range State shard (so no two shards write the same memory:
// each writes only its own rows of dInput and its own gradient vector), and
// the per-shard weight gradients are reduced in ascending shard order.
//
// Determinism contract: the result is a pure function of the wrapped network
// and the grid — never of the pool size, scheduling order, or GOMAXPROCS.
// Per-row quantities (logits, dInput) are bit-identical even to the
// unwrapped network, because forward and input-gradient math is
// row-independent in all three models. Cross-row sums (dW, dB) are computed
// per shard and combined elementwise in shard order, so they are
// bit-identical between the serial (nil pool) and parallel executions — the
// property that makes the engine's results independent of GOMAXPROCS.
type Parallel struct {
	net       Network
	rangeRows int
	pool      *Pool // nil = serial; set by the engine around a run
}

// NewParallel wraps net on the DefaultRangeRows grid with no pool (serial).
func NewParallel(net Network) *Parallel {
	if p, ok := net.(*Parallel); ok {
		return p
	}
	return &Parallel{net: net, rangeRows: DefaultRangeRows}
}

// SetPool installs (or, with nil, removes) the compute pool. The grid and
// therefore the numbers do not change — only how many goroutines walk it.
// Not safe to call concurrently with Forward/Backward/Grads; the engine
// sets the pool before dispatching workers and clears it after they join.
func (p *Parallel) SetPool(pool *Pool) { p.pool = pool }

// Unwrap returns the wrapped Network.
func (p *Parallel) Unwrap() Network { return p.net }

type parallelState struct {
	maxBatch int
	rows     int // rows of the most recent Forward
	shards   []State
	// flat[i] is shard i's gradient vector, which its layers write in
	// place. flat[0] is the grads NewState was given, so Grads reduces into
	// it in place; the rest are the wrapper's own. nil in a forward-only
	// state.
	flat [][]float32
	// summed: Grads has reduced every shard into flat[0] since the last
	// Backward, so flat[0] holds the sum and must not be added to again.
	summed bool
	logits []float32
	dInput *tensor.Matrix // NewState's; shard i writes its rows
}

// Name implements Network.
func (p *Parallel) Name() string { return p.net.Name() }

// InputDim implements Network.
func (p *Parallel) InputDim() int { return p.net.InputDim() }

// ParamCount implements Network.
func (p *Parallel) ParamCount() int { return p.net.ParamCount() }

// FLOPsPerSample implements Network.
func (p *Parallel) FLOPsPerSample() float64 { return p.net.FLOPsPerSample() }

// ApplyDense implements Network.
func (p *Parallel) ApplyDense(step func(params, grad []float32), grad []float32) {
	p.net.ApplyDense(step, grad)
}

// FlattenParams implements Network.
func (p *Parallel) FlattenParams(dst []float32) { p.net.FlattenParams(dst) }

// LoadParams implements Network.
func (p *Parallel) LoadParams(src []float32) { p.net.LoadParams(src) }

// NewState implements Network: one wrapped State per grid range, built on
// that range's rows of dInput and on its own gradient vector — grads itself
// for the first range — plus the combined logits.
func (p *Parallel) NewState(maxBatch int, dInput *tensor.Matrix, grads []float32) State {
	if maxBatch < 1 {
		maxBatch = 1
	}
	checkDests(p, maxBatch, dInput, grads)
	g := (maxBatch + p.rangeRows - 1) / p.rangeRows
	st := &parallelState{
		maxBatch: maxBatch,
		shards:   make([]State, g),
		logits:   make([]float32, maxBatch),
		dInput:   dInput,
	}
	if grads != nil {
		st.flat = make([][]float32, g)
	}
	cols := p.net.InputDim()
	for i := range st.shards {
		a := i * p.rangeRows
		rows := p.rangeRows
		if r := maxBatch - a; r < rows {
			rows = r
		}
		if grads == nil {
			st.shards[i] = p.net.NewState(rows, nil, nil)
			continue
		}
		st.flat[i] = grads
		if i > 0 {
			st.flat[i] = make([]float32, len(grads))
		}
		view := &tensor.Matrix{Rows: rows, Cols: cols, Data: dInput.Data[a*cols : (a+rows)*cols]}
		st.shards[i] = p.net.NewState(rows, view, st.flat[i])
	}
	return st
}

// grid returns the number of ranges covering rows.
func (p *Parallel) grid(rows int) int {
	return (rows + p.rangeRows - 1) / p.rangeRows
}

// Forward implements Network. Each range forwards an aliased row view of
// input through its own shard; shard logits are copied into the combined
// buffer at their row offsets, so the output layout matches the serial path.
func (p *Parallel) Forward(s State, input *tensor.Matrix, rows int) []float32 {
	st := s.(*parallelState)
	checkBatch(rows, st.maxBatch)
	st.rows = rows
	cols := input.Cols
	p.pool.Run(p.grid(rows), func(g int) {
		a := g * p.rangeRows
		b := a + p.rangeRows
		if b > rows {
			b = rows
		}
		view := &tensor.Matrix{Rows: b - a, Cols: cols, Data: input.Data[a*cols : b*cols]}
		out := p.net.Forward(st.shards[g], view, b-a)
		copy(st.logits[a:b], out)
	})
	return st.logits[:rows]
}

// Backward implements Network. Ranges are independent for dInput (row
// math), so each shard backward writes its rows of dInput in place. Weight
// gradients stay in the shards' vectors until Grads reduces them.
func (p *Parallel) Backward(s State, dLogit []float32) *tensor.Matrix {
	st := s.(*parallelState)
	mustTrain(st.flat != nil, "Parallel.Backward")
	rows := len(dLogit)
	if rows != st.rows {
		panic(fmt.Sprintf("nn: Parallel.Backward rows %d, Forward saw %d", rows, st.rows))
	}
	cols := p.net.InputDim()
	st.summed = false
	p.pool.Run(p.grid(rows), func(g int) {
		a := g * p.rangeRows
		b := a + p.rangeRows
		if b > rows {
			b = rows
		}
		p.net.Backward(st.shards[g], dLogit[a:b])
	})
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: st.dInput.Data[:rows*cols]}
}

// gradChunk is the parameter-chunk width of the parallel gradient
// reduction. Like the row grid it only partitions work: every dst element
// is still the ascending-shard sum flat[0][i]+flat[1][i]+…, so the chunking
// never changes a bit.
const gradChunk = 4096

// Grads implements Network: hand every active shard its own vector (a
// no-op for the built-in models, whose layers wrote there), then reduce the
// vectors elementwise in ascending shard order into dst. The reduction is
// parallelized over disjoint parameter chunks; the summation order per
// element is fixed by the grid, not by scheduling. When dst is NewState's
// grads, shard 0's gradients are already in place and the other shards are
// added to them; once that sum is there, Grads only copies it.
func (p *Parallel) Grads(s State, dst []float32) {
	st := s.(*parallelState)
	mustTrain(st.flat != nil, "Parallel.Grads")
	params := p.net.ParamCount()
	if cap(dst) < params {
		panic(fmt.Sprintf("nn: Parallel.Grads dst cap %d, want %d", cap(dst), params))
	}
	dst = dst[:params]
	inPlace := &dst[0] == &st.flat[0][0]
	if st.summed {
		if !inPlace {
			copy(dst, st.flat[0])
		}
		return
	}
	st.summed = inPlace
	g := p.grid(st.rows)
	if g == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	p.pool.Run(g, func(i int) {
		p.net.Grads(st.shards[i], st.flat[i])
	})
	chunks := (params + gradChunk - 1) / gradChunk
	p.pool.Run(chunks, func(c int) {
		lo := c * gradChunk
		hi := lo + gradChunk
		if hi > params {
			hi = params
		}
		if !inPlace {
			copy(dst[lo:hi], st.flat[0][lo:hi])
		}
		for shard := 1; shard < g; shard++ {
			src := st.flat[shard]
			out := dst[lo:hi]
			for i := range out {
				out[i] += src[lo+i]
			}
		}
	})
}
