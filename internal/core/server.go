package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cqrep/internal/relation"
)

// QuerySource is anything that can answer access requests — a
// Representation, or any façade over one (the Maintained wrapper exposes a
// compatible snapshot via Rep).
type QuerySource interface {
	Query(vb relation.Tuple) Iterator
}

// defaultServerBuffer is the per-request channel capacity: deep enough to
// decouple producer and consumer for typical result sizes, small enough
// that an undrained request exerts backpressure instead of buffering an
// unbounded result set.
const defaultServerBuffer = 256

// ServerOption customizes NewServer.
type ServerOption func(*serverConfig) error

type serverConfig struct {
	flushBatch int
}

// WithFlushBatch makes serving workers hand results to iterators in
// pooled batches of up to n tuples instead of one channel operation per
// tuple. The very first tuple of every stream is still delivered alone —
// the time-to-first-answer delay the paper's guarantees are about does
// not grow with n — but steady-state enumeration amortizes channel
// synchronization and buffer allocation over n tuples, making the Server
// path (near-)zero-alloc per tuple. The worst mid-stream gap grows to n
// production steps; streams are byte-identical for every n. n must be at
// least 1 (the default: per-tuple delivery); NewServer fails with
// ErrBadOption otherwise.
func WithFlushBatch(n int) ServerOption {
	return func(c *serverConfig) error {
		if n < 1 {
			return fmt.Errorf("%w: flush batch %d, need at least 1", ErrBadOption, n)
		}
		c.flushBatch = n
		return nil
	}
}

// Server is a batching front over a QuerySource: callers submit access
// requests from any goroutine and receive a per-request Iterator
// immediately, while a fixed pool of workers drains the underlying
// representation and streams tuples into the iterators. No request path
// uses it — httpserve enumerates on the handler goroutine — and it stays
// only as the subject of the repository benchmark's core.server probe,
// until that benchmark's contract changes.
//
// Iterators returned by SubmitContext block in Next until their request is
// served; requests are served in submission order. When a request's
// context is cancelled its iterator terminates and its serving worker
// abandons the enumeration. Close aborts outstanding work: undrained
// iterators terminate early rather than hang.
type Server struct {
	src    QuerySource
	buffer int // per-request channel capacity, in tuples
	batch  int // flush batch: tuples per channel operation (>= 1)

	// pool recycles batch buffers between serving workers and iterators:
	// a worker fills a pooled buffer, the consuming iterator drains it and
	// puts it back, so steady-state enumeration allocates nothing per
	// tuple. Buffers are *[]relation.Tuple so Get/Put stay allocation-free.
	pool sync.Pool

	mu    sync.Mutex
	cond  *sync.Cond
	queue []*serverReq

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	// closed is guarded by mu; it sits after once so the two sub-word
	// fields share one padding slot.
	closed bool
}

type serverReq struct {
	vb  relation.Tuple
	out chan *[]relation.Tuple
	// ctx is the submitting context; its Done channel (nil for
	// context.Background) gates the serve loop's aborts.
	ctx context.Context
	st  *streamErr // terminal-error slot shared with the iterator
}

// streamErr carries a result stream's terminal error from the serving
// worker to the consumer's iterator. The first error wins; later causes
// (e.g. a close racing a cancellation) are dropped, matching the contract
// that a stream ends for exactly one reason.
type streamErr struct{ p atomic.Pointer[error] }

func (s *streamErr) set(err error) {
	if err != nil {
		s.p.CompareAndSwap(nil, &err)
	}
}

func (s *streamErr) get() error {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

// errReporter is the optional terminal-error surface of an iterator: a
// source whose enumeration can fail mid-stream (e.g. a paged or remote
// snapshot backend) exposes the failure here after Next returns false.
type errReporter interface{ Err() error }

// IterErr returns the terminal error of a result stream — an Iterator or
// a BlockIterator — or nil when it does not report one. It is meaningful
// once the stream has ended (Next returned false, NextBlock came back
// empty): nil means the enumeration completed, a context error means it
// was cancelled, and any other error was surfaced by the underlying
// source mid-enumeration.
func IterErr(it any) error {
	if r, ok := it.(errReporter); ok {
		return r.Err()
	}
	return nil
}

// NewServer starts a server over src with the given number of worker
// goroutines; workers <= 0 means runtime.GOMAXPROCS(0). Callers must Close
// the server when done. An invalid option (e.g. WithFlushBatch below 1)
// fails with an error wrapping ErrBadOption and starts nothing.
func NewServer(src QuerySource, workers int, opts ...ServerOption) (*Server, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg := serverConfig{flushBatch: 1}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Server{src: src, buffer: defaultServerBuffer, batch: cfg.flushBatch, quit: make(chan struct{})}
	s.pool.New = func() any {
		b := make([]relation.Tuple, 0, s.batch)
		return &b
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// SubmitContext enqueues one access request tied to ctx and returns its
// result stream. It never blocks: the queue is unbounded and serving
// happens on the worker pool. When ctx is cancelled the iterator
// terminates (Next returns false) and the serving worker abandons the
// enumeration instead of filling a buffer nobody drains. Submitting to a
// closed server fails with ErrClosed; a ctx that is already done fails
// with its error. A nil ctx means context.Background().
func (s *Server) SubmitContext(ctx context.Context, vb relation.Tuple) (Iterator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The channel carries batches; its capacity is sized so the buffered
	// tuple count stays roughly s.buffer regardless of the batch.
	capBatches := s.buffer / s.batch
	if capBatches < 1 {
		capBatches = 1
	}
	out := make(chan *[]relation.Tuple, capBatches)
	st := &streamErr{}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.queue = append(s.queue, &serverReq{vb: vb.Clone(), out: out, ctx: ctx, st: st})
	s.mu.Unlock()
	s.cond.Signal()
	return &chanIterator{ch: out, ctx: ctx, st: st, pool: &s.pool}, nil
}

// worker pops requests in FIFO order and serves them until the server
// closes and the queue drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		req := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.serve(req)
	}
}

// serve drains one request into its channel, aborting on Close or on the
// request's own context so that a consumer that stopped reading cannot
// wedge the worker forever. Abort conditions are re-checked with priority
// before every send: a blocking select alone would pick randomly between a
// ready buffer slot and a closed done channel, letting a cancelled request
// keep filling its buffer nondeterministically.
//
// Tuples travel in pooled batches of up to s.batch (see WithFlushBatch).
// The first tuple always ships alone, so batching never defers the
// time-to-first-answer delay; a partial batch is flushed when the
// enumeration ends.
func (s *Server) serve(req *serverReq) {
	defer close(req.out)
	if s.aborted(req) {
		req.st.set(s.abortErr(req))
		return
	}
	it := s.src.Query(req.vb)
	bp := s.pool.Get().(*[]relation.Tuple)
	batch := (*bp)[:0]
	// send ships the accumulated batch; false means the stream aborted
	// (the terminal error is already recorded).
	send := func() bool {
		*bp = batch
		select {
		case req.out <- bp:
			bp = s.pool.Get().(*[]relation.Tuple)
			batch = (*bp)[:0]
			return true
		case <-s.quit:
			req.st.set(ErrClosed)
			return false
		case <-req.ctx.Done(): // nil for Background: never ready
			req.st.set(req.ctx.Err())
			return false
		}
	}
	limit := 1 // first flush carries one tuple: first-answer delay first
	for {
		t, ok := it.Next()
		if !ok {
			// A stream that ends because the source failed mid-enumeration
			// must say so: silently truncated results are indistinguishable
			// from complete ones. Sources surface the failure through the
			// optional Err method (see IterErr).
			if len(batch) > 0 && !send() {
				return
			}
			req.st.set(IterErr(it))
			return
		}
		if s.aborted(req) {
			req.st.set(s.abortErr(req))
			return
		}
		batch = append(batch, t)
		if len(batch) >= limit {
			if !send() {
				return
			}
			limit = s.batch
		}
	}
}

// abortErr names the reason aborted fired: the request's own context error
// when it is done, ErrClosed otherwise (the server is quitting).
func (s *Server) abortErr(req *serverReq) error {
	if err := req.ctx.Err(); err != nil {
		return err
	}
	return ErrClosed
}

// aborted reports, without blocking, whether the server is closing or the
// request's context is done.
func (s *Server) aborted(req *serverReq) bool {
	select {
	case <-s.quit:
		return true
	default:
	}
	if done := req.ctx.Done(); done != nil {
		select {
		case <-done:
			return true
		default:
		}
	}
	return false
}

// Close stops accepting requests, aborts in-flight enumerations, and waits
// for the workers to exit. Iterators for unserved requests terminate empty.
// Close is idempotent.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.quit)
		s.cond.Broadcast()
		s.wg.Wait()
	})
}

// chanIterator adapts a batched result channel to the Iterator interface.
// Workers ship pooled batches (see WithFlushBatch); the iterator drains one
// batch locally between channel receives and recycles spent buffers into
// the shared pool. When the submitting context is cancelled, Next stops
// early instead of draining whatever was already buffered.
type chanIterator struct {
	ch    <-chan *[]relation.Tuple
	cur   *[]relation.Tuple // batch currently being drained; nil between batches
	idx   int               // next position in cur
	pool  *sync.Pool        // recycles spent batches
	ctx   context.Context
	st    *streamErr // terminal error set by the serving worker
	ended bool       // the result channel closed (worker finished or aborted)
}

// Err returns the stream's terminal error (see IterErr). It is meaningful
// once Next has returned false; while the stream is live it returns
// whatever cause has already been recorded (usually nil).
func (it *chanIterator) Err() error {
	// Once the channel has closed, the worker's verdict (recorded before
	// the close, so visible here) is authoritative: a cleanly completed
	// stream stays error-free even if the caller cancels its context
	// afterwards.
	if it.ended {
		return it.st.get()
	}
	// A consumer-side cancellation can observe Next() == false before the
	// serving worker notices the done channel, so the context error is
	// consulted directly rather than waiting for the worker to record it.
	if err := it.st.get(); err != nil {
		return err
	}
	return it.ctx.Err()
}

// Next blocks until the serving worker produces the next tuple, returning
// false when the request's enumeration is complete (or was aborted by
// Close or context cancellation). Cancellation is checked with priority:
// once the context is done, Next returns false even when tuples are still
// buffered — a plain two-way select would pick between the ready channel
// and the closed done channel at random, yielding a nondeterministic
// number of post-cancellation tuples.
func (it *chanIterator) Next() (relation.Tuple, bool) {
	done := it.ctx.Done() // nil for Background: the selects degenerate to receives
	if done != nil {
		select {
		case <-done:
			return nil, false
		default:
		}
	}
	if it.cur != nil {
		if b := *it.cur; it.idx < len(b) {
			t := b[it.idx]
			it.idx++
			return t, true
		}
		it.recycle()
	}
	select {
	case bp, ok := <-it.ch:
		if !ok {
			it.ended = true
			return nil, false
		}
		it.cur, it.idx = bp, 1
		return (*bp)[0], true
	case <-done:
		return nil, false
	}
}

// recycle returns the drained batch to the shared pool, dropping the tuple
// references first so the pool does not pin result memory between requests.
func (it *chanIterator) recycle() {
	bp := it.cur
	it.cur = nil
	clear(*bp)
	it.pool.Put(bp)
}
