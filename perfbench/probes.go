package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/radix"
	"repro/internal/sqlfe"
	"repro/internal/vector"
	"repro/internal/wal"
)

// probeLayers times the layers below the physical plan directly, on the
// olap data generated from the run's seed: the vector Q6 pipeline, the
// radix join and grouping tables with the branch each cost model takes
// at the rotation's sizes, and the WAL apart from the engine (a bare
// fsync, then the group-commit log alone).
func probeLayers(tr *tracer, d *olapData, c *runCfg, r *report) error {
	reps := c.sc.Probe.Reps
	li := d.li
	n := li.Len()

	src, err := vector.NewSource([]string{"qty", "price", "disc"}, []vector.Col{
		{Kind: vector.KindInt, Ints: li.Quantity},
		{Kind: vector.KindFloat, Floats: li.Price},
		{Kind: vector.KindFloat, Floats: li.Discount},
	})
	if err != nil {
		return err
	}
	want := expectQ6(d)
	for k := 0; k < reps; k++ {
		var got float64
		err := tr.do(0, 0, "vector.q6", func(int64) error {
			var err error
			got, err = vector.ParallelQ6(src, engineWorkers, 0)
			return err
		})
		r.attempted++
		if err == nil && !floatEq(got, want) {
			err = fmt.Errorf("got %v, want %v", got, want)
		}
		if err != nil {
			r.opFailed("vector.ParallelQ6", err)
		}
	}

	groups := distinct(li.OrderKey)
	var buildNS, probeNS, groupNS []float64
	for k := 0; k < reps; k++ {
		var tables [4]*radix.JoinTable
		keys := 0
		t0 := time.Now()
		for j := range tables {
			dimKeys := make([]int64, len(d.dimG[j]))
			for i := range dimKeys {
				dimKeys[i] = int64(i)
			}
			keys += len(dimKeys)
			tables[j] = radix.NewJoinTable(dimKeys)
		}
		buildNS = append(buildNS, float64(time.Since(t0))/float64(keys))
		missing := 0
		t0 = time.Now()
		for j, jt := range tables {
			for _, fk := range d.fk[j] {
				if !jt.Contains(fk) {
					missing++
				}
			}
		}
		probeNS = append(probeNS, float64(time.Since(t0))/float64(4*len(d.m)))
		r.attempted++
		if missing != 0 {
			r.opFailed("radix.JoinTable.Contains", fmt.Errorf("%d foreign keys not found", missing))
		}

		gt := radix.NewGroupTable(n / 4)
		gids := make([]int32, n)
		t0 = time.Now()
		gt.AssignBulk(li.OrderKey, gids)
		groupNS = append(groupNS, float64(time.Since(t0))/float64(n))
		r.attempted++
		if gt.Len() != groups {
			r.opFailed("radix.GroupTable.AssignBulk", fmt.Errorf("%d groups, want %d", gt.Len(), groups))
		}
	}
	r.set("radix.build_ns_per_key", median(buildNS), "ns")
	r.set("radix.probe_ns_per_key", median(probeNS), "ns")
	r.set("radix.group_ns_per_key", median(groupNS), "ns")

	// The branch each cost model takes at the rotation's input sizes.
	r.set("radix.partition_group.hcgroup", b2f(radix.ShouldPartitionGroup(n, groups, engineWorkers)), "bool")
	clustered := 0
	for j := range d.dimG {
		if radix.ShouldCluster(len(d.dimG[j]), len(d.m), radix.JoinCacheBytes) {
			clustered++
		}
	}
	r.set("radix.cluster_join.star5", float64(clustered), "count")
	topnRows := 0
	for _, s := range li.ShipDate {
		if s < 1000 {
			topnRows++
		}
	}
	r.set("radix.parallel_sort.topn", b2f(radix.ShouldParallelSort(topnRows, engineWorkers)), "bool")

	return probeWAL(tr, c, r)
}

// probeWAL measures the log device and the group-commit log apart from
// the engine, in the run's scratch directory.
func probeWAL(tr *tracer, c *runCfg, r *report) error {
	dir := filepath.Join(c.work, "walprobe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := wal.OSFS{}.OpenAppend(filepath.Join(dir, "fsync.bin"))
	if err != nil {
		return err
	}
	page := make([]byte, 4096)
	for k := 0; k < c.sc.Probe.Fsyncs; k++ {
		if _, err := f.Write(page); err != nil {
			return errors.Join(err, f.Close())
		}
		if err := tr.do(0, 0, "wal.fsync", func(int64) error { return f.Sync() }); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.set("wal.fsync_ms", median(tr.durations("wal.fsync")), "ms")

	lg, _, err := wal.Open(wal.OSFS{}, filepath.Join(dir, "wal.log"),
		wal.Params{FlushEvery: groupCommitEvery, MaxBatch: groupCommitBatch})
	if err != nil {
		return err
	}
	types := []byte{byte(sqlfe.TInt), byte(sqlfe.TInt), byte(sqlfe.TInt)}
	var wg sync.WaitGroup
	errs := make([]error, wireClients)
	for w := 0; w < wireClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < c.sc.Probe.WALTxs; i++ {
				ops := []wal.Op{&wal.OpInsert{Table: "orders", Types: types, Rows: [][]any{{int64(i), int64(w), int64(1)}}}}
				var lsn uint64
				err := tr.do(0, 0, "wal.append", func(int64) error {
					var err error
					lsn, err = lg.AppendTx(ops)
					return err
				})
				if err == nil {
					err = tr.do(0, 0, "wal.durable_wait", func(int64) error { return lg.WaitDurable(lsn) })
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(append(errs, lg.Close())...); err != nil {
		return fmt.Errorf("WAL probe: %w", err)
	}
	r.set("wal.append_us", 1e3*median(tr.durations("wal.append")), "us")
	r.set("wal.durable_wait_ms", median(tr.durations("wal.durable_wait")), "ms")
	return nil
}

// finishTrace derives the span-based layer metrics, adds each layer's
// self time to the report, and writes the spans next to the run's
// scratch directory.
func finishTrace(tr *tracer, c *runCfg, r *report) error {
	r.set("sqlfe.parse_us", 1e3*median(tr.durations("sqlfe.parse")), "us")
	r.set("sqlfe.compile_us", 1e3*median(tr.durations("sqlfe.compile")), "us")
	r.set("physical.lower_us", 1e3*median(tr.durations("physical.lower")), "us")
	r.set("sqlfe.snapshot_ms", median(tr.durations("sqlfe.snapshot")), "ms")
	r.set("physical.exec_ms", median(tr.durations("physical.exec")), "ms")
	r.set("mal.exec_ms", median(tr.durations("mal.exec")), "ms")
	r.set("vector.q6_ms", median(tr.durations("vector.q6")), "ms")

	r.note("%-28s %8s %12s %12s", "span", "count", "total_ms", "self_ms")
	for _, lt := range tr.selfTimes() {
		r.note("%-28s %8d %12.2f %12.2f", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	path := filepath.Join(filepath.Dir(c.work), fmt.Sprintf("trace-%s-seed%d.jsonl", c.workload, c.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	r.note("spans written to %s", path)
	return f.Close()
}

func expectQ6(d *olapData) float64 {
	li := d.li
	var q6 float64
	for i := 0; i < li.Len(); i++ {
		if li.Quantity[i] < 24 && li.Discount[i] >= 0.05 && li.Discount[i] <= 0.07 {
			q6 += li.Price[i] * (1 - li.Discount[i])
		}
	}
	return q6
}

func distinct(xs []int64) int {
	seen := make(map[int64]struct{}, len(xs)/2)
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
