package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/engine"
	"repro/internal/memgov"
	"repro/internal/physical"
	"repro/internal/spill"
	"repro/internal/sqlfe"
	"repro/internal/wal"
)

// runOLAP is the olap workload (and, with spilling, olap-spill): one
// closed-loop client runs the fixed six-class rotation through the
// embedded engine on a durable, reopened database.
func runOLAP(c *runCfg, spilling bool) (*report, error) {
	r := newReport()
	d := genOLAP(c.sc, c.seed)
	classes := olapClasses(d)
	inserts := d.loadSQL(c.sc.InsertRows)

	dir := filepath.Join(c.work, "db")
	spillDir := filepath.Join(c.work, "spill")
	var extra []engine.Option
	if spilling {
		extra = []engine.Option{engine.WithMemBudget(c.sc.SpillBytes), engine.WithSpill(spillDir)}
	}
	reps := c.sc.SetupReps[0]
	if c.trace {
		reps = 1
	}
	var db *engine.DB
	var loadWAL engine.WALStats
	stop, setupS, err := setupReps(reps, dir, func() (func() error, error) {
		var err error
		db, loadWAL, err = load(dir, olapDDL, inserts, true, extra...)
		return func() error { return db.Close() }, err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS, "s")
	inserts = nil

	secs := c.seconds
	if c.trace {
		secs /= 2 // the other half runs traced
	}
	lat, sp, err := olapLoop(db, classes, secs, r)
	if err != nil {
		return nil, errors.Join(err, stop())
	}
	readP50, opsPerS := olapSummary(r, classes, lat, "")
	r.set("read_p50_ms", readP50, "ms")
	r.set("ops_per_s", opsPerS, "1/s")

	st := db.SpillStats()
	if spilling && st.Spills == 0 {
		r.checkFail("olap-spill: no query spilled; the budget does not force out-of-core execution")
	}
	r.set("spill.files_per_query", sp.files/float64(max(sp.queries, 1)), "count")
	r.set("spill.bytes_per_query", sp.bytes/float64(max(sp.queries, 1)), "bytes")
	r.set("spill.live_files_after", float64(st.LiveFiles), "count")
	if st.LiveFiles != 0 {
		r.checkFail("spill: %d spill files still live after the workload", st.LiveFiles)
	}

	if c.trace {
		if err := enginePrepareProbe(db, classes, c.sc.Probe.Lowerings, r); err != nil {
			return nil, errors.Join(err, stop())
		}
		if err := olapServerProbe(db, d, c.sc.Probe.Overhead, r); err != nil {
			return nil, errors.Join(err, stop())
		}
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	if !c.trace {
		return r, nil
	}

	walRatios(r, loadWAL)
	r.set("sqlfe.delta_rows", 0, "count")
	shadow, err := sqlfe.Load(dir)
	if err != nil {
		return nil, fmt.Errorf("loading the replay database: %w", err)
	}
	tr := newTracer()
	var gov func() (*memgov.Reservation, *spill.Scope)
	if spilling {
		mgr := spill.NewManager(wal.OSFS{}, spillDir)
		gov = func() (*memgov.Reservation, *spill.Scope) {
			return memgov.New(c.sc.SpillBytes, memgov.Spill), mgr.Scope()
		}
	}
	if err := replayOLAP(tr, shadow, classes, secs, gov, c.sc.Probe.Lowerings, r); err != nil {
		return nil, err
	}
	tracedP50, _ := olapSummary(r, classes, tracedClassLat(tr, classes), "traced.")
	r.set("trace.overhead_pct", 100*(tracedP50/readP50-1), "%")
	if err := probeLayers(tr, d, c, r); err != nil {
		return nil, err
	}
	return r, finishTrace(tr, c, r)
}

type spillTally struct {
	queries      int
	files, bytes float64
}

// olapLoop runs whole rotations until secs have passed and returns each
// class's latencies (ms) and the spill traffic of the queries.
func olapLoop(db *engine.DB, classes []queryClass, secs float64, r *report) ([][]float64, spillTally, error) {
	ctx := context.Background()
	conn := db.Conn()
	defer conn.Close()
	stmts := make([]*engine.Stmt, len(classes))
	tables := make([]*table, len(classes))
	for i, qc := range classes {
		st, err := conn.Prepare(qc.sql)
		if err != nil {
			return nil, spillTally{}, fmt.Errorf("preparing %s: %w", qc.name, err)
		}
		defer st.Close()
		stmts[i], tables[i] = st, newTable(qc.kinds)
	}
	lat := make([][]float64, len(classes))
	var sp spillTally
	// One untimed rotation warms the plans and the columns' pages, and a
	// collection clears the set-up's garbage, so the timed loop starts
	// from the same state on every run.
	warm := true
	runtime.GC()
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for ; warm || time.Now().Before(deadline); warm = false {
		for i, qc := range classes {
			s0 := db.SpillStats()
			t0 := time.Now()
			rows, err := stmts[i].Query(ctx)
			if err == nil {
				err = drainRows(rows, tables[i])
			}
			d := time.Since(t0)
			s1 := db.SpillStats()
			r.attempted++
			if err == nil {
				err = qc.check(tables[i])
			}
			if err != nil {
				r.opFailed(qc.name, err)
				continue
			}
			if warm {
				continue
			}
			lat[i] = append(lat[i], ms(d))
			sp.queries++
			sp.files += float64(s1.Spills - s0.Spills)
			sp.bytes += float64(s1.BytesWritten - s0.BytesWritten)
		}
	}
	return lat, sp, nil
}

// olapSummary reports each class's median and returns the read latency
// (the geometric mean of the class medians, as TPC-H's power metric
// combines query times) and the queries per second of a rotation that
// takes each class's median time. Medians keep one stalled query from
// moving either number.
func olapSummary(r *report, classes []queryClass, lat [][]float64, prefix string) (readP50, opsPerS float64) {
	var p50s []float64
	for i, qc := range classes {
		p := median(lat[i])
		r.set(prefix+qc.name+"_p50_ms", p, "ms")
		p50s = append(p50s, p)
	}
	r.note("%-40s %14d rotations", prefix+"timed", len(lat[0]))
	return geomean(p50s), float64(len(classes)) / (sum(p50s) / 1e3)
}

// enginePrepareProbe times Conn.Prepare of each class on fresh sessions
// (plan-cache hits after the first) and reports the cache's hit ratio.
func enginePrepareProbe(db *engine.DB, classes []queryClass, reps int, r *report) error {
	var us []float64
	for k := 0; k < reps; k++ {
		conn := db.Conn()
		for _, qc := range classes {
			t0 := time.Now()
			st, err := conn.Prepare(qc.sql)
			if err != nil {
				return fmt.Errorf("preparing %s: %w", qc.name, err)
			}
			us = append(us, float64(time.Since(t0))/1e3)
			st.Close()
		}
		conn.Close()
	}
	r.set("engine.prepare_us", median(us), "us")
	pc := db.PlanCacheStats()
	r.set("engine.plancache_hit_ratio", float64(pc.Hits)/float64(max(pc.Hits+pc.Misses, 1)), "ratio")
	return nil
}

// olapServerProbe measures the serving layer's fixed cost per statement
// on the olap database: a point lookup over the wire against the same
// prepared statement run in-process.
func olapServerProbe(db *engine.DB, d *olapData, reps int, r *report) error {
	const q = "SELECT g FROM d1 WHERE k = ?"
	ws, err := startServer(db)
	if err != nil {
		return err
	}
	probeErr := func() error {
		cl, err := client.Dial(ws.addr)
		if err != nil {
			return err
		}
		defer cl.Close()
		remote, err := cl.Prepare(q)
		if err != nil {
			return err
		}
		conn := db.Conn()
		defer conn.Close()
		local, err := conn.Prepare(q)
		if err != nil {
			return err
		}
		ctx := context.Background()
		t := newTable("i")
		var rtt, inproc []float64
		for i := 0; i < reps; i++ {
			k := int64(i % len(d.dimG[0]))
			for _, side := range []struct {
				it  func() (rowIter, error)
				lat *[]float64
			}{
				{func() (rowIter, error) { return remote.Query(ctx, k) }, &rtt},
				{func() (rowIter, error) { return local.Query(ctx, k) }, &inproc},
			} {
				t0 := time.Now()
				it, err := side.it()
				if err == nil {
					err = drainRows(it, t)
				}
				*side.lat = append(*side.lat, float64(time.Since(t0))/1e3)
				r.attempted++
				if err == nil && (t.n != 1 || t.ints[0][0] != d.dimG[0][k]) {
					err = fmt.Errorf("d1.g of key %d: got %v, want %d", k, t.ints[0], d.dimG[0][k])
				}
				if err != nil {
					r.opFailed("server probe", err)
				}
			}
		}
		r.set("server.overhead_us", median(rtt)-median(inproc), "us")
		st, err := cl.Stats()
		if err != nil {
			return err
		}
		r.set("server.queued_max", float64(st.Queued), "count")
		r.set("server.rejected", float64(st.RejectedQ+st.RejectedMem), "count")
		return nil
	}()
	return errors.Join(probeErr, ws.stop())
}

// walRatios reports group commit's batching over a set of commits.
func walRatios(r *report, ws engine.WALStats) {
	r.set("wal.fsyncs_per_commit", float64(ws.Fsyncs)/float64(max(ws.Txs, 1)), "ratio")
	r.set("wal.txs_per_flush", float64(ws.Txs)/float64(max(ws.Flushes, 1)), "ratio")
}

// prepared is one statement lowered the way the engine's plan cache
// holds it: the physical plan, or nil when the planner falls back.
type prepared struct {
	sel  *sqlfe.Select
	phys *physical.Plan
	fb   *physical.Fallback
}

// prepareTraced parses, MAL-compiles and lowers sql reps times under
// spans and returns the last lowering.
func prepareTraced(tr *tracer, db *sqlfe.DB, sql string, reps int) (prepared, error) {
	var p prepared
	snap := db.Snapshot()
	snap.Materialize()
	for k := 0; k < reps; k++ {
		err := tr.do(0, 0, "sqlfe.parse", func(int64) error {
			st, err := sqlfe.Parse(sql)
			if err != nil {
				return err
			}
			sel, ok := st.(*sqlfe.Select)
			if !ok {
				return fmt.Errorf("%q is not a SELECT", sql)
			}
			p.sel = sel
			return nil
		})
		if err != nil {
			return p, err
		}
		var names []string
		if err := tr.do(0, 0, "sqlfe.compile", func(int64) error {
			prog, _, err := snap.CompileSelectBound(p.sel)
			if err == nil {
				names = prog.ResultNames
			}
			return err
		}); err != nil {
			return p, err
		}
		_ = tr.do(0, 0, "physical.lower", func(int64) error {
			p.phys, p.fb = physical.Lower(p.sel, snap)
			return nil
		})
		if p.phys != nil {
			p.phys.Names = names
		}
	}
	return p, nil
}

// execTraced runs one prepared SELECT on snap under spans, the way the
// engine does: the physical plan when it lowers and the data qualifies,
// otherwise the MAL interpreter. It returns the fallback taken, if any.
func execTraced(tr *tracer, trace, parent int64, db *sqlfe.DB, snap *sqlfe.Snapshot, p prepared, sql string, args []any,
	gov func() (*memgov.Reservation, *spill.Scope), stats *physical.ExecStats, t *table) (*physical.Fallback, error) {
	fb := p.fb
	if p.phys != nil {
		err := tr.do(trace, parent, "physical.exec", func(int64) error {
			opts := physical.Options{Workers: engineWorkers, Stats: stats}
			if gov != nil {
				opts.Gov, opts.Spill = gov()
			}
			res, dfb, err := p.phys.Execute(context.Background(), snap, args, opts)
			if err == nil && dfb == nil {
				err = drainOp(res.Op, res.Limit, t)
			}
			fb = dfb
			if opts.Spill != nil {
				err = errors.Join(err, opts.Spill.Cleanup())
			}
			return err
		})
		if err != nil || fb == nil {
			return nil, err
		}
	}
	return fb, tr.do(trace, parent, "mal.exec", func(int64) error {
		res, err := db.QuerySnapshot(snap, sql)
		if err != nil {
			return err
		}
		return fillRows(res.Rows, t)
	})
}

// replayOLAP is the traced half of olap: the same rotation, replayed
// through each layer's public functions on a sqlfe.DB loaded from the
// same directory, with a span around every call.
func replayOLAP(tr *tracer, db *sqlfe.DB, classes []queryClass, secs float64,
	gov func() (*memgov.Reservation, *spill.Scope), reps int, r *report) error {
	preps := make([]prepared, len(classes))
	tables := make([]*table, len(classes))
	for i, qc := range classes {
		p, err := prepareTraced(tr, db, qc.sql, reps)
		if err != nil {
			return fmt.Errorf("preparing %s: %w", qc.name, err)
		}
		preps[i], tables[i] = p, newTable(qc.kinds)
	}
	fallbacks := map[string]int{}
	var inter, estErr []float64
	var trace int64
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i, qc := range classes {
			trace++
			stats := &physical.ExecStats{}
			err := tr.do(trace, 0, "op."+qc.name, func(root int64) error {
				var snap *sqlfe.Snapshot
				_ = tr.do(trace, root, "sqlfe.snapshot", func(int64) error {
					snap = db.Snapshot()
					snap.Materialize()
					return nil
				})
				fb, err := execTraced(tr, trace, root, db, snap, preps[i], qc.sql, nil, gov, stats, tables[i])
				if fb != nil {
					fallbacks[fb.Code]++
				}
				return err
			})
			r.attempted++
			if err == nil {
				err = qc.check(tables[i])
			}
			if err != nil {
				r.opFailed("traced "+qc.name, err)
			}
			if len(stats.Joins) > 0 {
				n, e := joinStats(stats)
				inter, estErr = append(inter, n), append(estErr, e)
			}
		}
	}
	total := 0
	for code, n := range fallbacks {
		total += n
		r.note("physical.fallbacks.%s %d", code, n)
	}
	r.set("physical.fallbacks", float64(total), "count")
	r.set("physical.fallbacks.group-key-not-int", float64(fallbacks[physical.ReasonGroupKeyType]), "count")
	r.set("physical.join_inter_rows", zeroIfNaN(median(inter)), "count")
	r.set("physical.join_est_err", zeroIfNaN(median(estErr)), "ratio")
	return nil
}

// joinStats sums a join tree's intermediate rows and returns its worst
// q-error: max(estimate, actual) / min(estimate, actual) over the steps.
func joinStats(st *physical.ExecStats) (inter, qerr float64) {
	qerr = 1
	for i := range st.Joins {
		act := atomic.LoadInt64(&st.Joins[i].Actual)
		est := st.Joins[i].EstRows
		inter += float64(act)
		lo, hi := float64(min(act, est)), float64(max(act, est))
		if e := hi / max(lo, 1); e > qerr {
			qerr = e
		}
	}
	return inter, qerr
}

// tracedClassLat returns each class's traced operation times (ms).
func tracedClassLat(tr *tracer, classes []queryClass) [][]float64 {
	out := make([][]float64, len(classes))
	for i, qc := range classes {
		out[i] = tr.durations("op." + qc.name)
	}
	return out
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
