package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/client"
	"repro/engine"
	"repro/internal/server"
)

// The configuration every workload runs with. The group-commit policy is
// set explicitly (to the engine's defaults) so both sides of any
// comparison flush alike.
const (
	engineWorkers    = 2
	wireClients      = 2
	groupCommitEvery = 2 * time.Millisecond
	groupCommitBatch = 128
)

func engineOpts(dir string) []engine.Option {
	return []engine.Option{
		engine.WithDir(dir),
		engine.WithWorkers(engineWorkers),
		engine.WithGroupCommit(groupCommitEvery, groupCommitBatch),
	}
}

// load creates a durable database in the empty directory dir and runs
// ddl and the INSERT statements through the engine; with reopen it then
// closes and reopens the database so the rows sit in main columns. It
// returns the WAL counters of the load.
func load(dir string, ddl, inserts []string, reopen bool, extra ...engine.Option) (*engine.DB, engine.WALStats, error) {
	opts := append(engineOpts(dir), extra...)
	db, err := engine.Open(opts...)
	if err != nil {
		return nil, engine.WALStats{}, err
	}
	ctx := context.Background()
	for _, q := range append(append([]string(nil), ddl...), inserts...) {
		if _, err := db.Exec(ctx, q); err != nil {
			return nil, engine.WALStats{}, errors.Join(fmt.Errorf("loading: %w", err), db.Close())
		}
	}
	ws := db.WALStats()
	if !reopen {
		return db, ws, nil
	}
	if err := db.Close(); err != nil {
		return nil, ws, fmt.Errorf("closing after load: %w", err)
	}
	db, err = engine.Open(opts...)
	return db, ws, err
}

// setupReps builds the workload's starting state reps times, each from
// an empty directory, and returns the last one with the median set-up
// time. mk does one set-up and returns its teardown.
func setupReps(reps int, dir string, mk func() (func() error, error)) (func() error, float64, error) {
	var times []float64
	var stop func() error
	for i := 0; i < reps; i++ {
		if stop != nil {
			if err := stop(); err != nil {
				return nil, 0, err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		// Flush the previous set-up's dirty pages so its writeback does
		// not compete with this one (or, after the last, with the loop).
		syscall.Sync()
		runtime.GC()
		t0 := time.Now()
		var err error
		if stop, err = mk(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	syscall.Sync()
	return stop, median(times), nil
}

// wireServer is an in-process server.Server on 127.0.0.1.
type wireServer struct {
	srv  *server.Server
	ln   net.Listener
	addr string
	done chan error
}

func startServer(db *engine.DB) (*wireServer, error) {
	srv, err := server.New(server.Config{DB: db, Workers: engineWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: srv, ln: ln, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { ws.done <- srv.Serve(context.Background(), ln) }()
	// Ready means a client completes the handshake.
	cl, err := client.Dial(ws.addr)
	if err != nil {
		return nil, errors.Join(err, ws.stop())
	}
	return ws, cl.Close()
}

// stop drains the server and waits for Serve to return.
func (ws *wireServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := errors.Join(ws.srv.Shutdown(ctx), <-ws.done)
	if cerr := ws.ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
		err = errors.Join(err, cerr)
	}
	return err
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of p99 and p90 with at least ten samples
// beyond it; ok is false when even p90 has fewer.
func tailQuantile(xs []float64) (name string, v float64, ok bool) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(xs))*(1-t.q) >= 10 {
			return t.name, quantile(xs, t.q), true
		}
	}
	return "", 0, false
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
