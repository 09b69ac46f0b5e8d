package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/engine"
	"repro/internal/sqlfe"
)

const (
	readSQL   = "SELECT count(*), sum(amt) FROM orders WHERE cust = ?"
	insertSQL = "INSERT INTO orders VALUES (?, ?, ?)"
)

func readLiteral(cust int64) string {
	return fmt.Sprintf("SELECT count(*), sum(amt) FROM orders WHERE cust = %d", cust)
}

// runWire is wire-mixed (reopen: the base rows sit in main columns) and
// wire-ingest (no reopen: they stay in the insert delta). Two closed-loop
// connections each run a fixed number of operations through repro/client
// against an in-process server.Server: four prepared reads, then one
// prepared single-row INSERT.
func runWire(c *runCfg, reopen bool) (*report, error) {
	r := newReport()
	o := genOrders(c.sc, c.seed)
	inserts := o.loadSQL(c.sc.InsertRows)
	dir := filepath.Join(c.work, "db")
	reps := c.sc.SetupReps[1]
	if c.trace {
		reps = 1
	}
	var db *engine.DB
	var ws *wireServer
	stop, setupS, err := setupReps(reps, dir, func() (func() error, error) {
		var err error
		if db, _, err = load(dir, []string{ordersDDL}, inserts, reopen); err != nil {
			return nil, err
		}
		if ws, err = startServer(db); err != nil {
			return nil, errors.Join(err, db.Close())
		}
		return func() error { return errors.Join(ws.stop(), db.Close()) }, nil
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS, "s")

	rate := c.sc.WireRate[0]
	if !reopen {
		rate = c.sc.WireRate[1]
	}
	nOps := rate * int(c.seconds)
	if c.trace {
		// Half the operations run untraced; a quarter of that half then
		// runs traced, since each traced read also runs in-process and on
		// the replay database.
		nOps /= 2
	}
	w := &wireRun{addr: ws.addr, model: o.model(c.sc.Customers), customers: int64(c.sc.Customers), seed: c.seed}
	w.nextOID.Store(int64(c.sc.Orders))

	wal0 := db.WALStats()
	ph, err := w.loop(nOps, 0, r)
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	wal1 := db.WALStats()
	readP50 := median(ph.reads)
	r.set("read_p50_ms", readP50, "ms")
	r.set("ops_per_s", float64(ph.ok)/ph.wall, "1/s")
	latencyNotes(r, ph)

	if c.trace {
		walRatios(r, engine.WALStats{Fsyncs: wal1.Fsyncs - wal0.Fsyncs, Txs: wal1.Txs - wal0.Txs, Flushes: wal1.Flushes - wal0.Flushes})
		if err := w.traced(c, db, inserts, reopen, nOps/4, readP50, r); err != nil {
			return nil, errors.Join(err, stop())
		}
		delta := w.acked.Load()
		if !reopen {
			delta += int64(c.sc.Orders)
		}
		r.set("sqlfe.delta_rows", float64(delta), "count")
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("shutting down: %w", err)
	}
	if err := w.checkDurable(dir, o, r); err != nil {
		return nil, err
	}
	return r, nil
}

// wireRun is the state the connections share: the model of orders
// (each connection reads and writes only its own customers, so every
// read has one exact answer) and the traced-replay handles.
type wireRun struct {
	addr      string
	model     *custModel
	customers int64
	seed      int64
	nextOID   atomic.Int64
	acked     atomic.Int64 // acknowledged INSERTs
	ackedAmt  atomic.Int64
	unacked   atomic.Int64 // INSERTs that failed: durable or not

	// Traced half only.
	tr        *tracer
	local     *engine.Stmt // the read, prepared in-process on the server's DB
	shadow    *sqlfe.DB    // loaded the same way as the server's DB
	shadowRd  prepared
	fallbacks atomic.Int64
	traceID   atomic.Int64
	queuedMax atomic.Int64
}

// phase is one loop's outcome.
type phase struct {
	reads, commits []float64 // ms
	ok             int
	wall           float64 // s
}

// loop runs nOps operations split over the connections.
func (w *wireRun) loop(nOps, phaseNo int, r *report) (phase, error) {
	type clientOut struct {
		phase
		attempted, failed int
		failures          []error
		err               error
	}
	outs := make([]clientOut, wireClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := 0; ci < wireClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			out := &outs[ci]
			out.err = w.client(ci, nOps/wireClients, phaseNo, func(read bool, d time.Duration, err error) {
				out.attempted++
				switch {
				case err != nil:
					out.failed++
					out.failures = append(out.failures, err)
				case read:
					out.reads = append(out.reads, ms(d))
					out.ok++
				default:
					out.commits = append(out.commits, ms(d))
					out.ok++
				}
			})
		}(ci)
	}
	wg.Wait()
	ph := phase{wall: time.Since(t0).Seconds()}
	var errs []error
	for _, out := range outs {
		errs = append(errs, out.err)
		r.attempted += out.attempted
		for _, e := range out.failures {
			r.opFailed("wire", e)
		}
		ph.reads = append(ph.reads, out.reads...)
		ph.commits = append(ph.commits, out.commits...)
		ph.ok += out.ok
	}
	return ph, errors.Join(errs...)
}

// client runs one connection's operations, reporting each to done.
func (w *wireRun) client(ci, n, phaseNo int, done func(read bool, d time.Duration, err error)) error {
	ctx := context.Background()
	cl, err := client.Dial(w.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	rd, err := cl.Prepare(readSQL)
	if err != nil {
		return err
	}
	ins, err := cl.Prepare(insertSQL)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(phaseNo)*101 + int64(ci)))
	t, t2 := newTable("ii"), newTable("ii")
	for i := 0; i < n; i++ {
		cust := w.pickCust(rng, ci)
		if i%5 == 4 {
			oid, amt := w.nextOID.Add(1)-1, 1+rng.Int63n(1000)
			var d time.Duration
			err := w.span("op.insert", func(tid, root int64) error {
				err := w.child(tid, root, "client.insert", &d, func() error {
					_, err := ins.Exec(ctx, oid, cust, amt)
					return err
				})
				if err != nil {
					w.unacked.Add(1)
					return err
				}
				w.model.add(cust, amt)
				w.acked.Add(1)
				w.ackedAmt.Add(amt)
				if w.shadow == nil {
					return nil
				}
				return w.child(tid, root, "sqlfe.insert", nil, func() error {
					_, err := w.shadow.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)", oid, cust, amt))
					return err
				})
			})
			done(false, d, err)
			continue
		}
		check := func(t *table) error {
			if t.n != 1 || t.ints[0][0] != w.model.count[cust] || t.ints[1][0] != w.model.sum[cust] {
				return fmt.Errorf("customer %d: got count, sum %v %v, want %d %d", cust, t.ints[0], t.ints[1], w.model.count[cust], w.model.sum[cust])
			}
			return nil
		}
		var d time.Duration
		err := w.span("op.read", func(tid, root int64) error {
			err := w.child(tid, root, "client.read", &d, func() error {
				rows, err := rd.Query(ctx, cust)
				if err == nil {
					err = drainRows(rows, t)
				}
				return err
			})
			if err == nil {
				err = check(t)
			}
			if err != nil || w.tr == nil {
				return err
			}
			return w.replayRead(tid, root, cust, t2, check)
		})
		done(true, d, err)
		if w.tr != nil && ci == 0 && i%50 == 0 {
			st, err := cl.Stats()
			if err != nil {
				return err
			}
			if q := int64(st.Queued); q > w.queuedMax.Load() {
				w.queuedMax.Store(q)
			}
		}
	}
	return nil
}

// replayRead runs one read again in-process on the server's database
// (for server.overhead_us) and on the replay database through each
// layer, each under its span.
func (w *wireRun) replayRead(tid, root, cust int64, t *table, check func(*table) error) error {
	ctx := context.Background()
	err := w.child(tid, root, "engine.query", nil, func() error {
		rows, err := w.local.Query(ctx, cust)
		if err == nil {
			err = drainRows(rows, t)
		}
		if err == nil {
			err = check(t)
		}
		return err
	})
	if err != nil {
		return err
	}
	var snap *sqlfe.Snapshot
	_ = w.child(tid, root, "sqlfe.snapshot", nil, func() error {
		snap = w.shadow.Snapshot()
		snap.Materialize()
		return nil
	})
	fb, err := execTraced(w.tr, tid, root, w.shadow, snap, w.shadowRd, readLiteral(cust), []any{cust}, nil, nil, t)
	if fb != nil {
		w.fallbacks.Add(1)
	}
	if err != nil {
		return err
	}
	return check(t)
}

// pickCust draws one of connection ci's customers that has orders (an
// empty customer's sum is NULL).
func (w *wireRun) pickCust(rng *rand.Rand, ci int) int64 {
	half := w.customers / wireClients
	c := rng.Int63n(half)
	for w.model.count[c*wireClients+int64(ci)] == 0 {
		c = (c + 1) % half
	}
	return c*wireClients + int64(ci)
}

// span runs f as an operation's root span when tracing.
func (w *wireRun) span(name string, f func(tid, root int64) error) error {
	if w.tr == nil {
		return f(0, 0)
	}
	tid := w.traceID.Add(1)
	return w.tr.do(tid, 0, name, func(root int64) error { return f(tid, root) })
}

// child runs f as a child span when tracing and stores its duration in
// *d when d is not nil.
func (w *wireRun) child(tid, parent int64, name string, d *time.Duration, f func() error) error {
	t0 := time.Now()
	var err error
	if w.tr == nil {
		err = f()
	} else {
		err = w.tr.do(tid, parent, name, func(int64) error { return f() })
	}
	if d != nil {
		*d = time.Since(t0)
	}
	return err
}

// traced runs nOps more operations with spans, then the statement-level
// and layer probes.
func (w *wireRun) traced(c *runCfg, db *engine.DB, inserts []string, reopen bool, nOps int, readP50 float64, r *report) error {
	shadow := sqlfe.NewDB()
	for _, q := range append([]string{ordersDDL}, inserts...) {
		if _, err := shadow.Exec(q); err != nil {
			return fmt.Errorf("loading the replay database: %w", err)
		}
	}
	if reopen {
		sdir := filepath.Join(c.work, "replay")
		if err := shadow.Save(sdir); err != nil {
			return err
		}
		var err error
		if shadow, err = sqlfe.Load(sdir); err != nil {
			return err
		}
	}
	// The untraced half's inserts, so the replay holds the same rows.
	if err := copyInserted(db, shadow, int64(c.sc.Orders)); err != nil {
		return err
	}
	tr := newTracer()
	rd, err := prepareTraced(tr, shadow, readSQL, c.sc.Probe.Lowerings)
	if err != nil {
		return err
	}
	conn := db.Conn()
	defer conn.Close()
	local, err := conn.Prepare(readSQL)
	if err != nil {
		return err
	}
	defer local.Close()
	w.tr, w.local, w.shadow, w.shadowRd = tr, local, shadow, rd

	ph, err := w.loop(nOps, 1, r)
	if err != nil {
		return err
	}
	r.set("traced.read_p50_ms", median(ph.reads), "ms")
	r.set("traced.ops_per_s", float64(ph.ok)/ph.wall, "1/s")
	r.set("trace.overhead_pct", 100*(median(ph.reads)/readP50-1), "%")
	r.set("server.overhead_us", 1e3*(median(tr.durations("client.read"))-median(tr.durations("engine.query"))), "us")
	r.set("server.queued_max", float64(w.queuedMax.Load()), "count")
	r.set("physical.fallbacks", float64(w.fallbacks.Load()), "count")
	r.set("physical.fallbacks.group-key-not-int", 0, "count")
	r.set("physical.join_inter_rows", 0, "count")
	r.set("physical.join_est_err", 0, "ratio")
	st := db.SpillStats()
	r.set("spill.files_per_query", 0, "count")
	r.set("spill.bytes_per_query", 0, "bytes")
	r.set("spill.live_files_after", float64(st.LiveFiles), "count")

	if err := w.statementProbes(c, shadow, r); err != nil {
		return err
	}
	if err := probeLayers(tr, genOLAP(c.sc, c.seed), c, r); err != nil {
		return err
	}
	return finishTrace(tr, c, r)
}

// statementProbes times client.Prepare round trips, reads the server's
// counters, and runs the read on the MAL interpreter.
func (w *wireRun) statementProbes(c *runCfg, shadow *sqlfe.DB, r *report) error {
	cl, err := client.Dial(w.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var us []float64
	for k := 0; k < c.sc.Probe.Lowerings; k++ {
		t0 := time.Now()
		st, err := cl.Prepare(readSQL)
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if err := st.Close(); err != nil {
			return err
		}
	}
	r.set("engine.prepare_us", median(us), "us")
	st, err := cl.Stats()
	if err != nil {
		return err
	}
	r.set("engine.plancache_hit_ratio", float64(st.PlanHits)/float64(max(st.PlanHits+st.PlanMisses, 1)), "ratio")
	r.set("server.rejected", float64(st.RejectedQ+st.RejectedMem), "count")

	rng := rand.New(rand.NewSource(w.seed))
	t := newTable("ii")
	for k := 0; k < c.sc.Probe.Reps; k++ {
		cust := w.pickCust(rng, k%wireClients)
		snap := shadow.Snapshot()
		err := w.tr.do(0, 0, "mal.exec", func(int64) error {
			res, err := shadow.QuerySnapshot(snap, readLiteral(cust))
			if err != nil {
				return err
			}
			return fillRows(res.Rows, t)
		})
		r.attempted++
		if err == nil && (t.n != 1 || t.ints[0][0] != w.model.count[cust] || t.ints[1][0] != w.model.sum[cust]) {
			err = fmt.Errorf("customer %d: MAL got %v %v", cust, t.ints[0], t.ints[1])
		}
		if err != nil {
			r.opFailed("mal read", err)
		}
	}
	return nil
}

// copyInserted copies the rows the server holds beyond the base rows
// (the untraced half's acknowledged INSERTs) into the replay database.
func copyInserted(db *engine.DB, shadow *sqlfe.DB, base int64) error {
	rows, err := db.Query(context.Background(), fmt.Sprintf("SELECT oid, cust, amt FROM orders WHERE oid >= %d", base))
	if err != nil {
		return err
	}
	t := newTable("iii")
	if err := drainRows(rows, t); err != nil {
		return err
	}
	for i := 0; i < t.n; i++ {
		if _, err := shadow.Exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)", t.ints[0][i], t.ints[1][i], t.ints[2][i])); err != nil {
			return err
		}
	}
	return nil
}

// checkDurable reopens the directory after shutdown and requires every
// acknowledged INSERT (and no phantom row) to be there.
func (w *wireRun) checkDurable(dir string, o *ordersData, r *report) error {
	db, err := engine.Open(engineOpts(dir)...)
	if err != nil {
		return fmt.Errorf("reopening for the durability check: %w", err)
	}
	rows, err := db.Query(context.Background(), "SELECT count(*), sum(amt) FROM orders")
	t := newTable("ii")
	if err == nil {
		err = drainRows(rows, t)
	}
	if err := errors.Join(err, db.Close()); err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	var baseSum int64
	for _, a := range o.amt {
		baseSum += a
	}
	lo := int64(len(o.amt)) + w.acked.Load()
	hi := lo + w.unacked.Load()
	if t.n != 1 || t.ints[0][0] < lo || t.ints[0][0] > hi || (t.ints[0][0] == lo && t.ints[1][0] != baseSum+w.ackedAmt.Load()) {
		r.checkFail("durability: reopened count, sum = %v %v, want count in [%d, %d] and sum %d", t.ints[0], t.ints[1], lo, hi, baseSum+w.ackedAmt.Load())
	}
	return nil
}

// latencyNotes reports the wire latencies beyond the end-to-end set.
func latencyNotes(r *report, ph phase) {
	r.set("query_p50_ms", median(ph.reads), "ms")
	if name, v, ok := tailQuantile(ph.reads); ok {
		r.set("query_"+name+"_ms", v, "ms")
	}
	r.set("commit_p50_ms", median(ph.commits), "ms")
	if name, v, ok := tailQuantile(ph.commits); ok {
		r.set("commit_"+name+"_ms", v, "ms")
	}
	r.note("%-40s %14d reads, %d commits", "timed", len(ph.reads), len(ph.commits))
}
