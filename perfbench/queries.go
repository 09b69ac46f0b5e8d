package main

import (
	"fmt"
	"sort"
)

// queryClass is one query of the olap rotation: its SQL, the kinds of
// its result columns, and a check against results the harness computes
// from the generated data.
type queryClass struct {
	name  string
	sql   string
	kinds string
	check func(*table) error
}

const (
	q6SQL   = "SELECT sum(price * (1 - disc)) FROM lineitem WHERE qty < 24 AND disc >= 0.05 AND disc <= 0.07"
	q1SQL   = "SELECT rf, st, count(*) AS c, sum(qty) AS sq, sum(price) AS sp, avg(disc) AS ad FROM lineitem WHERE ship <= 2400 GROUP BY rf, st ORDER BY sq"
	hcSQL   = "SELECT okey, count(*), sum(qty) FROM lineitem GROUP BY okey"
	topnSQL = "SELECT lid, price FROM lineitem WHERE ship < 1000 ORDER BY price DESC LIMIT 100"
	star5   = "SELECT d1.g, count(*), sum(fact.m) FROM fact JOIN d1 ON fact.k1 = d1.k JOIN d2 ON fact.k2 = d2.k JOIN d3 ON fact.k3 = d3.k JOIN d4 ON fact.k4 = d4.k WHERE d2.g < 50 AND d3.g < 20 GROUP BY d1.g"
	textSQL = "SELECT flag, count(*), sum(m) FROM fact GROUP BY flag"
)

type cntSum struct{ n, s int64 }

// olapClasses returns the fixed rotation, with expected results
// precomputed from d.
func olapClasses(d *olapData) []queryClass {
	li := d.li
	n := li.Len()

	q6 := expectQ6(d)

	type q1Agg struct {
		c, sq      int64
		sp, sumDis float64
	}
	q1 := map[[2]int64]*q1Agg{}
	for i := 0; i < n; i++ {
		if li.ShipDate[i] > 2400 {
			continue
		}
		k := [2]int64{li.ReturnFlg[i], li.Status[i]}
		a := q1[k]
		if a == nil {
			a = &q1Agg{}
			q1[k] = a
		}
		a.c++
		a.sq += li.Quantity[i]
		a.sp += li.Price[i]
		a.sumDis += li.Discount[i]
	}

	hc := map[int64]cntSum{}
	for i := 0; i < n; i++ {
		a := hc[li.OrderKey[i]]
		a.n++
		a.s += li.Quantity[i]
		hc[li.OrderKey[i]] = a
	}

	var topPrices []float64
	for i := 0; i < n; i++ {
		if li.ShipDate[i] < 1000 {
			topPrices = append(topPrices, li.Price[i])
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(topPrices)))
	if len(topPrices) > 100 {
		topPrices = topPrices[:100]
	}

	st := map[int64]cntSum{}
	tg := map[string]cntSum{}
	for i := range d.m {
		f := flagName(d.flag[i])
		a := tg[f]
		a.n++
		a.s += d.m[i]
		tg[f] = a
		if d.dimG[1][d.fk[1][i]] >= 50 || d.dimG[2][d.fk[2][i]] >= 20 {
			continue
		}
		g := d.dimG[0][d.fk[0][i]]
		a = st[g]
		a.n++
		a.s += d.m[i]
		st[g] = a
	}

	intGroups := func(t *table, want map[int64]cntSum) error {
		return groupCheck(t, want, func(i int) int64 { return t.ints[0][i] },
			func(i int, w cntSum) bool { return t.ints[1][i] == w.n && t.ints[2][i] == w.s })
	}

	return []queryClass{
		{name: "q6", sql: q6SQL, kinds: "f", check: func(t *table) error {
			if t.n != 1 || !floatEq(t.flts[0][0], q6) {
				return fmt.Errorf("q6: got %v, want [%v]", t.flts[0], q6)
			}
			return nil
		}},
		{name: "q1", sql: q1SQL, kinds: "iiiiff", check: func(t *table) error {
			for i := 1; i < t.n; i++ {
				if t.ints[3][i-1] > t.ints[3][i] {
					return fmt.Errorf("q1: row %d breaks ORDER BY sq", i)
				}
			}
			return groupCheck(t, q1, func(i int) [2]int64 { return [2]int64{t.ints[0][i], t.ints[1][i]} },
				func(i int, w *q1Agg) bool {
					return t.ints[2][i] == w.c && t.ints[3][i] == w.sq &&
						floatEq(t.flts[4][i], w.sp) && floatEq(t.flts[5][i], w.sumDis/float64(w.c))
				})
		}},
		{name: "hcgroup", sql: hcSQL, kinds: "iii", check: func(t *table) error { return intGroups(t, hc) }},
		{name: "topn", sql: topnSQL, kinds: "if", check: func(t *table) error {
			if t.n != len(topPrices) {
				return fmt.Errorf("topn: %d rows, want %d", t.n, len(topPrices))
			}
			seen := map[int64]bool{}
			for i := 0; i < t.n; i++ {
				lid, p := t.ints[0][i], t.flts[1][i]
				// The key sequence is exact under ORDER BY; among equal
				// prices any qualifying row is a correct answer.
				if p != topPrices[i] || lid < 0 || lid >= int64(n) || seen[lid] ||
					li.Price[lid] != p || li.ShipDate[lid] >= 1000 {
					return fmt.Errorf("topn: row %d (lid %d, price %v) is wrong", i, lid, p)
				}
				seen[lid] = true
			}
			return nil
		}},
		{name: "star5", sql: star5, kinds: "iii", check: func(t *table) error { return intGroups(t, st) }},
		{name: "textgroup", sql: textSQL, kinds: "sii", check: func(t *table) error {
			return groupCheck(t, tg, func(i int) string { return t.strs[0][i] },
				func(i int, w cntSum) bool { return t.ints[1][i] == w.n && t.ints[2][i] == w.s })
		}},
	}
}
