package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adhoctx/internal/client"
	"adhoctx/internal/disk"
	"adhoctx/internal/engine"
	"adhoctx/internal/kv"
	"adhoctx/internal/obs"
	"adhoctx/internal/server"
	"adhoctx/internal/sim"
	"adhoctx/internal/wal"
)

// numConns is both the connection count and the generator goroutine count:
// the CPU count of the 2-CPU hosts the benchmark is calibrated on.
const numConns = 2

// segmentSize is adhocserve's -segsize default.
const segmentSize = 1 << 20

// stack is the serving stack as adhocserve wires it: a Postgres-dialect
// engine plus a KV store behind internal/server on loopback, one obs
// registry wired into all three, and (durable workloads) a disk.Store WAL
// with group commit. Clients are one per generator goroutine, each pooling
// one connection.
type stack struct {
	w       *workload
	eng     *engine.Engine
	kv      *kv.Store
	reg     *obs.Registry
	srv     *server.Server
	store   *disk.Store
	dir     string
	clients [numConns]*client.Client
	workers [numConns]*worker

	recover time.Duration // disk.Open + Engine.LoadRecovered (durable only)
}

// engineConfig is adhocserve's engine configuration.
func engineConfig() engine.Config {
	return engine.Config{Dialect: engine.Postgres, LockTimeout: 5 * time.Second}
}

// build runs one full set-up: seed (and for durable workloads checkpoint,
// close and recover the directory), listen, and ping from every client.
func build(w *workload, seed int64, dir string, tr *tracer) (*stack, error) {
	s := &stack{w: w, dir: dir}
	var dev wal.Device
	if w.durable {
		if err := seedDir(w, seed, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		store, rec, err := disk.Open(dir, disk.Options{SegmentSize: segmentSize})
		if err != nil {
			return nil, fmt.Errorf("reopening %s: %w", dir, err)
		}
		s.store, dev = store, store
		if tr != nil {
			dev = &tracedDevice{store: store, tr: tr, synced: rec.LastLSN}
		}
		s.eng = newEngine(w, dev)
		if err := s.eng.LoadRecovered(rec.Checkpoint, rec.Tail, rec.LastLSN); err != nil {
			_ = store.Close()
			return nil, fmt.Errorf("recovering %s: %w", dir, err)
		}
		s.recover = time.Since(start)
	} else {
		s.eng = newEngine(w, nil)
		if err := w.seed(s.eng, seed); err != nil {
			return nil, err
		}
	}
	s.kv = kv.NewStore(nil, sim.Latency{})
	s.reg = obs.NewRegistry()
	s.eng.WireObs(s.reg)
	s.kv.WireObs(s.reg)

	cfg := server.Config{Addr: "127.0.0.1:0"}
	if tr != nil {
		cfg.WrapConn = func(c net.Conn) net.Conn { return newServerConn(c, tr) }
	}
	s.srv = server.New(s.eng, s.kv, cfg)
	s.srv.WireObs(s.reg)
	if err := s.srv.Start(); err != nil {
		s.close()
		return nil, err
	}
	for i := range s.clients {
		s.workers[i] = &worker{ledger: ledger{likes: map[int64]int64{}}}
		cc := client.Config{Addr: s.srv.Addr().String(), PoolSize: 1}
		if tr != nil {
			wk := s.workers[i]
			cc.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return newClientConn(c, tr, wk), nil
			}
		}
		s.clients[i] = client.New(cc)
		s.workers[i].c = s.clients[i]
		if err := s.clients[i].Ping(); err != nil {
			s.close()
			return nil, fmt.Errorf("first ping: %w", err)
		}
	}
	return s, nil
}

func newEngine(w *workload, dev wal.Device) *engine.Engine {
	cfg := engineConfig()
	if dev != nil {
		cfg.WALDevice = dev
		cfg.GroupCommit = true
	}
	e := engine.New(cfg)
	w.create(e)
	return e
}

// seedDir seeds a fresh data directory through a disk-backed engine, then
// checkpoints and closes it, so the serving engine boots by recovery.
func seedDir(w *workload, seed int64, dir string) error {
	store, _, err := disk.Open(dir, disk.Options{SegmentSize: segmentSize})
	if err != nil {
		return fmt.Errorf("opening %s: %w", dir, err)
	}
	e := newEngine(w, store)
	err = w.seed(e, seed)
	if err == nil {
		var snap []byte
		var lsn uint64
		if snap, lsn, err = e.Snapshot(); err == nil {
			err = store.Checkpoint(snap, lsn)
		}
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// close stops the server and clients and closes the data directory (staged
// but unsynced bytes are discarded, exactly as a crash would).
func (s *stack) close() error {
	for _, c := range s.clients {
		if c != nil {
			_ = c.Close()
		}
	}
	var err error
	if s.srv != nil {
		err = s.srv.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// checkpoint is one background checkpoint's timings.
type checkpoint struct {
	snapshot, write time.Duration
	bytes           int
}

// checkpointer is adhocserve's background checkpoint ticker, started at the
// beginning of each measured phase so every phase holds the same number of
// checkpoints at the same offsets.
type checkpointer struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	err  error
	log  []checkpoint
}

func startCheckpointer(s *stack, every time.Duration, tr *tracer) *checkpointer {
	cp := &checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(cp.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-cp.stop:
				return
			case <-tick.C:
				c, err := s.checkpoint(tr)
				cp.mu.Lock()
				cp.log = append(cp.log, c)
				if err != nil && cp.err == nil {
					cp.err = err
				}
				cp.mu.Unlock()
			}
		}
	}()
	return cp
}

// halt stops the ticker, waits for an in-flight checkpoint, and returns
// every checkpoint taken.
func (cp *checkpointer) halt() ([]checkpoint, error) {
	close(cp.stop)
	<-cp.done
	return cp.log, cp.err
}

func (s *stack) checkpoint(tr *tracer) (checkpoint, error) {
	var c checkpoint
	t0 := time.Now()
	snap, lsn, err := s.eng.Snapshot()
	t1 := time.Now()
	c.snapshot, c.bytes = t1.Sub(t0), len(snap)
	if err != nil {
		return c, fmt.Errorf("checkpoint snapshot: %w", err)
	}
	err = s.store.Checkpoint(snap, lsn)
	t2 := time.Now()
	c.write = t2.Sub(t1)
	if tr.enabled() {
		root := tr.add(span{Name: "checkpoint", Start: tr.ns(t0), End: tr.ns(t2)})
		tr.add(span{Parent: root, Name: "engine.snapshot", Start: tr.ns(t0), End: tr.ns(t1)})
		tr.add(span{Parent: root, Name: "disk.checkpoint", Start: tr.ns(t1), End: tr.ns(t2)})
	}
	if err != nil {
		return c, fmt.Errorf("checkpoint: %w", err)
	}
	return c, nil
}

// dataDir names a fresh data directory under the checkout's build area.
func dataDir(w *workload, i int) string {
	return filepath.Join(".bench_build", "data", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
}
