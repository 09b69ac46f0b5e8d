package main

import (
	"fmt"
	"math"

	"repro/internal/vector"
)

// table is a query result in column form, filled by whichever layer ran
// the query, so one check serves the engine, the wire and the replay.
type table struct {
	kinds string // one letter per column: i (INT), f (FLOAT), s (TEXT)
	ints  [][]int64
	flts  [][]float64
	strs  [][]string
	n     int

	dest []any // Scan destinations, one per column
	ti   []int64
	tf   []float64
	ts   []string
}

func newTable(kinds string) *table {
	k := len(kinds)
	t := &table{kinds: kinds, ints: make([][]int64, k), flts: make([][]float64, k), strs: make([][]string, k),
		dest: make([]any, k), ti: make([]int64, k), tf: make([]float64, k), ts: make([]string, k)}
	for c := 0; c < k; c++ {
		switch kinds[c] {
		case 'i':
			t.dest[c] = &t.ti[c]
		case 'f':
			t.dest[c] = &t.tf[c]
		default:
			t.dest[c] = &t.ts[c]
		}
	}
	return t
}

func (t *table) reset() {
	for c := range t.kinds {
		t.ints[c], t.flts[c], t.strs[c] = t.ints[c][:0], t.flts[c][:0], t.strs[c][:0]
	}
	t.n = 0
}

// appendScanned appends the values the last Scan stored in dest.
func (t *table) appendScanned() {
	for c := range t.kinds {
		switch t.kinds[c] {
		case 'i':
			t.ints[c] = append(t.ints[c], t.ti[c])
		case 'f':
			t.flts[c] = append(t.flts[c], t.tf[c])
		default:
			t.strs[c] = append(t.strs[c], t.ts[c])
		}
	}
	t.n++
}

// rowIter is the cursor shape engine.Rows and client.Rows share.
type rowIter interface {
	Next() bool
	Scan(dest ...any) error
	Err() error
	Close() error
}

// drainRows reads a cursor to its end into t and closes it.
func drainRows(it rowIter, t *table) error {
	t.reset()
	for it.Next() {
		if err := it.Scan(t.dest...); err != nil {
			_ = it.Close() // the Scan error is the one to report
			return err
		}
		t.appendScanned()
	}
	if err := it.Err(); err != nil {
		_ = it.Close()
		return err
	}
	return it.Close()
}

// drainOp reads an opened vector operator to its end (or to limit rows
// when limit >= 0) into t and closes it.
func drainOp(op vector.Operator, limit int, t *table) error {
	t.reset()
	for limit != 0 {
		b, err := op.Next()
		if err != nil {
			_ = op.Close()
			return err
		}
		if b == nil {
			break
		}
		if len(b.Cols) != len(t.kinds) {
			_ = op.Close()
			return fmt.Errorf("batch has %d columns, want %d", len(b.Cols), len(t.kinds))
		}
		for i := 0; i < b.Rows() && limit != 0; i++ {
			r := i
			if b.Sel != nil {
				r = int(b.Sel[i])
			}
			for c := range t.kinds {
				switch b.Cols[c].Kind {
				case vector.KindInt:
					t.ti[c] = b.Cols[c].Ints[r]
				case vector.KindFloat:
					t.tf[c] = b.Cols[c].Floats[r]
				}
			}
			t.appendScanned()
			if limit > 0 {
				limit--
			}
		}
	}
	return op.Close()
}

// fillRows loads a row-form result (the MAL interpreter's) into t.
func fillRows(rows [][]any, t *table) error {
	t.reset()
	for _, row := range rows {
		if len(row) != len(t.kinds) {
			return fmt.Errorf("row has %d columns, want %d", len(row), len(t.kinds))
		}
		for c, v := range row {
			var ok bool
			switch t.kinds[c] {
			case 'i':
				t.ti[c], ok = v.(int64)
			case 'f':
				t.tf[c], ok = v.(float64)
			default:
				t.ts[c], ok = v.(string)
			}
			if !ok {
				return fmt.Errorf("column %d is %T, want kind %c", c, v, t.kinds[c])
			}
		}
		t.appendScanned()
	}
	return nil
}

// floatTol is the relative tolerance for float aggregates: the engine
// sums in morsel order, the harness in row order.
const floatTol = 1e-9

func floatEq(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// groupCheck compares a grouped result as a multiset of groups: each
// expected key exactly once, with equal aggregates. The engine promises
// no row order without ORDER BY, so the order of groups is not checked.
func groupCheck[K comparable, V any](t *table, want map[K]V, key func(int) K, eq func(int, V) bool) error {
	if t.n != len(want) {
		return fmt.Errorf("%d groups, want %d", t.n, len(want))
	}
	seen := make(map[K]bool, t.n)
	for i := 0; i < t.n; i++ {
		k := key(i)
		w, ok := want[k]
		if !ok || seen[k] {
			return fmt.Errorf("row %d: unexpected or repeated group %v", i, k)
		}
		seen[k] = true
		if !eq(i, w) {
			return fmt.Errorf("row %d: group %v has wrong aggregates", i, k)
		}
	}
	return nil
}
