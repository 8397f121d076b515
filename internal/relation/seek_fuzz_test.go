package relation

import "testing"

// FuzzIndexSeek checks the galloping seeks against the binary ones and a
// linear scan: GallopGE and GallopGT must return exactly SeekGE and
// SeekGT on every range they may be asked about. The bytes choose a
// binary relation over a small domain, so runs of equal values are long,
// the index's column order, and a sequence of seeks: a depth, a range
// [lo, hi) — possibly empty or inverted, and at depth 1 inside one run of
// the leading column, where the order column is sorted — and a value,
// which may be NegInf, PosInf or outside the stored domain.
func FuzzIndexSeek(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 0, 1, 0, 1, 1, 1, 2, 2, 3, 0, 3, 1, 0, 0, 9, 5, 1, 3, 1, 4, 7, 0, 2, 2, 1, 0, 0})
	f.Add([]byte{1, 12, 5, 5, 5, 4, 5, 3, 5, 2, 5, 1, 5, 0, 4, 4, 4, 0, 3, 3, 2, 2, 1, 1, 0, 5, 0, 0, 12, 7, 1, 1, 6, 2, 3, 5, 4, 1, 0, 4})
	f.Add([]byte{0, 1, 3, 3, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		const domain = 6
		order, rows := []int{0, 1}, int(data[1])
		if data[0]&1 == 1 {
			order = []int{1, 0}
		}
		in := data[2:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		r := NewRelation("R", 2)
		for i := 0; i < rows && len(in) > 0; i++ {
			r.MustInsert(Value(next()%domain), Value(next()%domain))
		}
		ix := r.Index(order...)
		n := ix.Len()
		for len(in) > 0 {
			depth, lo, hi := next()%2, next()%(n+2), next()%(n+2)
			if depth == 1 && n > 0 {
				// Stay inside the leading column's run at position p.
				p := next() % n
				first := ix.SeekGE(0, n, 0, ix.ValueAt(p, 0))
				last := ix.SeekGT(first, n, 0, ix.ValueAt(p, 0))
				lo, hi = first+lo%(last-first+1), first+hi%(last-first+1)
			} else {
				lo, hi = min(lo, n), min(hi, n)
			}
			var v Value
			switch b := next(); b % 16 {
			case 0:
				v = NegInf
			case 1:
				v = PosInf
			default:
				v = Value(b%16 - 3) // -1 .. domain+6
			}
			ge, gt := lo, lo
			for ge < hi && ix.ValueAt(ge, depth) < v {
				ge++
			}
			for gt < hi && ix.ValueAt(gt, depth) <= v {
				gt++
			}
			if got, want := ix.SeekGE(lo, hi, depth, v), ge; got != want {
				t.Fatalf("SeekGE(%d, %d, %d, %v) = %d, scan %d", lo, hi, depth, v, got, want)
			}
			if got, want := ix.SeekGT(lo, hi, depth, v), gt; got != want {
				t.Fatalf("SeekGT(%d, %d, %d, %v) = %d, scan %d", lo, hi, depth, v, got, want)
			}
			if got, want := ix.GallopGE(lo, hi, depth, v), ix.SeekGE(lo, hi, depth, v); got != want {
				t.Fatalf("GallopGE(%d, %d, %d, %v) = %d, SeekGE %d", lo, hi, depth, v, got, want)
			}
			if got, want := ix.GallopGT(lo, hi, depth, v), ix.SeekGT(lo, hi, depth, v); got != want {
				t.Fatalf("GallopGT(%d, %d, %d, %v) = %d, SeekGT %d", lo, hi, depth, v, got, want)
			}
		}
	})
}
