package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/workload"
)

// scale fixes every dataset size and run parameter a workload uses.
// The full scale is what BENCHMARK.json names; the small scale keeps the
// same shapes and checks at a size the package tests run in seconds.
type scale struct {
	Name       string
	LineItems  int      // lineitem rows (workload.GenLineItem shape)
	Facts      int      // star fact rows
	Dims       [4]int   // star dimension sizes
	Flags      int      // distinct TEXT flag values in the fact table
	Orders     int      // wire workloads' base rows
	Customers  int      // wire workloads' customer-key domain
	InsertRows int      // rows per multi-row INSERT while loading
	SetupReps  [2]int   // olap, wire set-ups per run; setup_s is their median
	SpillBytes int64    // olap-spill's per-query memory budget
	WireRate   [2]int   // wire-mixed, wire-ingest operations per second of --seconds
	Probe      probeCfg // layer-probe repetitions in the traced run
}

type probeCfg struct {
	Reps      int // repetitions of each timed probe (medians are reported)
	WALTxs    int // transactions per writer in the WAL group-commit probe
	Overhead  int // in-process vs round-trip pairs for server.overhead_us
	Fsyncs    int // bare fsyncs timed for wal.fsync_ms
	Lowerings int // repetitions of parse/lower/compile per statement
}

var scales = map[string]scale{
	"full": {
		Name: "full", LineItems: 500_000, Facts: 250_000, Dims: [4]int{500, 1000, 2000, 5000}, Flags: 20,
		Orders: 200_000, Customers: 20_000, InsertRows: 5000, SetupReps: [2]int{3, 7}, SpillBytes: 256 << 10,
		WireRate: [2]int{1300, 260},
		Probe:    probeCfg{Reps: 9, WALTxs: 200, Overhead: 400, Fsyncs: 40, Lowerings: 50},
	},
	"small": {
		Name: "small", LineItems: 40_000, Facts: 20_000, Dims: [4]int{50, 100, 200, 500}, Flags: 5,
		Orders: 4000, Customers: 400, InsertRows: 1000, SetupReps: [2]int{2, 2}, SpillBytes: 256 << 10,
		WireRate: [2]int{200, 200},
		Probe:    probeCfg{Reps: 3, WALTxs: 20, Overhead: 40, Fsyncs: 5, Lowerings: 5},
	},
}

// olapData is the generated content of the olap workloads: lineitem plus
// a star schema. Every expected query result is computed from it.
type olapData struct {
	li   *workload.LineItem
	fk   [4][]int64 // fact.k1..k4: foreign keys into d1..d4
	m    []int64    // fact.m
	flag []int      // fact.flag as an index into flagName
	dimG [4][]int64 // dN.g by key (dN.k = row index)
}

func flagName(i int) string { return fmt.Sprintf("flag-%02d", i) }

func genOLAP(sc scale, seed int64) *olapData {
	d := &olapData{li: workload.GenLineItem(sc.LineItems, seed)}
	r := rand.New(rand.NewSource(seed*7919 + 1))
	for j := range d.dimG {
		d.dimG[j] = make([]int64, sc.Dims[j])
		for k := range d.dimG[j] {
			d.dimG[j][k] = r.Int63n(100)
		}
		d.fk[j] = make([]int64, sc.Facts)
	}
	d.m = make([]int64, sc.Facts)
	d.flag = make([]int, sc.Facts)
	for i := 0; i < sc.Facts; i++ {
		for j := range d.fk {
			d.fk[j][i] = r.Int63n(int64(sc.Dims[j]))
		}
		d.m[i] = r.Int63n(1000) - 200
		d.flag[i] = r.Intn(sc.Flags)
	}
	return d
}

var olapDDL = []string{
	"CREATE TABLE lineitem (lid INT, qty INT, price FLOAT, disc FLOAT, tax FLOAT, ship INT, okey INT, rf INT, st INT)",
	"CREATE TABLE fact (k1 INT, k2 INT, k3 INT, k4 INT, m INT, flag TEXT)",
	"CREATE TABLE d1 (k INT, g INT)",
	"CREATE TABLE d2 (k INT, g INT)",
	"CREATE TABLE d3 (k INT, g INT)",
	"CREATE TABLE d4 (k INT, g INT)",
}

// loadSQL renders the whole dataset as multi-row INSERT statements, the
// way a client would load it.
func (d *olapData) loadSQL(batch int) []string {
	li := d.li
	out := batches("lineitem", li.Len(), batch, func(b []byte, i int) []byte {
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, li.Quantity[i], 10)
		for _, f := range []float64{li.Price[i], li.Discount[i], li.Tax[i]} {
			b = append(b, ',')
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		for _, v := range []int64{li.ShipDate[i], li.OrderKey[i], li.ReturnFlg[i], li.Status[i]} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		return append(b, ')')
	})
	out = append(out, batches("fact", len(d.m), batch, func(b []byte, i int) []byte {
		b = append(b, '(')
		for j := range d.fk {
			b = strconv.AppendInt(b, d.fk[j][i], 10)
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, d.m[i], 10)
		b = append(b, ",'"...)
		b = append(b, flagName(d.flag[i])...)
		return append(b, "')"...)
	})...)
	for j := range d.dimG {
		g := d.dimG[j]
		out = append(out, batches(fmt.Sprintf("d%d", j+1), len(g), batch, func(b []byte, i int) []byte {
			b = append(b, '(')
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, g[i], 10)
			return append(b, ')')
		})...)
	}
	return out
}

// batches renders n rows of table as INSERT statements of at most
// batch rows each.
func batches(table string, n, batch int, row func([]byte, int) []byte) []string {
	var out []string
	for lo := 0; lo < n; lo += batch {
		b := []byte("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				b = append(b, ',')
			}
			b = row(b, i)
		}
		out = append(out, string(b))
	}
	return out
}

// ordersData is the wire workloads' base table and its client model.
type ordersData struct {
	cust, amt []int64 // by oid
}

const ordersDDL = "CREATE TABLE orders (oid INT, cust INT, amt INT)"

func genOrders(sc scale, seed int64) *ordersData {
	r := rand.New(rand.NewSource(seed*104729 + 3))
	o := &ordersData{cust: make([]int64, sc.Orders), amt: make([]int64, sc.Orders)}
	for i := range o.cust {
		o.cust[i] = r.Int63n(int64(sc.Customers))
		o.amt[i] = 1 + r.Int63n(1000)
	}
	return o
}

func (o *ordersData) loadSQL(batch int) []string {
	return batches("orders", len(o.cust), batch, func(b []byte, i int) []byte {
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, o.cust[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, o.amt[i], 10)
		return append(b, ')')
	})
}

// custModel is the harness-side model of orders: count and sum(amt) per
// customer, including every acknowledged INSERT.
type custModel struct {
	count, sum []int64
}

func (o *ordersData) model(customers int) *custModel {
	m := &custModel{count: make([]int64, customers), sum: make([]int64, customers)}
	for i, c := range o.cust {
		m.count[c]++
		m.sum[c] += o.amt[i]
	}
	return m
}

func (m *custModel) add(cust, amt int64) {
	m.count[cust]++
	m.sum[cust] += amt
}
