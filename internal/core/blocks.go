package core

import (
	"context"

	"cqrep/internal/relation"
)

// BlockIterator is the block-at-a-time form of a result stream: NextBlock
// yields up to max (>= 1) answers in the declared enumeration order, and
// an empty block once the stream has ended. The slice and its tuples are
// borrowed — read-only, and valid only until the next NextBlock call — so
// a consumer that keeps an answer must Clone it. After the empty block,
// IterErr distinguishes a complete enumeration (nil) from one that failed
// or was cancelled, exactly as for an Iterator.
type BlockIterator interface {
	NextBlock(max int) []relation.Tuple
}

// QueryBlocks answers an access request block by block — the serving
// path's form of Query. Backends that store their answers contiguously
// (materialized buckets, directly or behind a routed shard key) hand out
// sub-slices of the stored bucket: no copy, no allocation, and ctx is the
// caller's to observe between blocks. Every other backend goes through one
// adapter that fills a reused buffer from Next and polls ctx per tuple, so
// a cancelled request abandons a slow enumeration within one answer's
// delay; its IterErr is then ctx's error. Query's contract is unchanged:
// tuples from Next are the caller's to keep.
func (r *Representation) QueryBlocks(ctx context.Context, vb relation.Tuple) BlockIterator {
	it := r.Query(vb)
	if b, ok := it.(BlockIterator); ok {
		return b
	}
	return &blockAdapter{ctx: ctx, it: it}
}

// blockAdapter serves NextBlock over a per-tuple Iterator whose tuples
// are freshly built (so lending them out costs nothing extra).
type blockAdapter struct {
	ctx context.Context
	it  Iterator
	buf []relation.Tuple
	err error // ctx's error once cancellation cut the stream
}

func (a *blockAdapter) NextBlock(max int) []relation.Tuple {
	if a.err != nil {
		return nil
	}
	a.buf = a.buf[:0]
	for len(a.buf) < max {
		// A cancelled request drops the partial block: nothing after the
		// cut is delivered, as on the Server path.
		if a.err = a.ctx.Err(); a.err != nil {
			return nil
		}
		t, ok := a.it.Next()
		if !ok {
			break
		}
		a.buf = append(a.buf, t)
	}
	return a.buf
}

// Err is the stream's terminal error (see IterErr): the cancellation that
// cut it, or whatever the wrapped iterator reports.
func (a *blockAdapter) Err() error {
	if a.err != nil {
		return a.err
	}
	return IterErr(a.it)
}
