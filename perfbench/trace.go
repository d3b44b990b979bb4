package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adhoctx/internal/disk"
	"adhoctx/internal/wal"
	"adhoctx/internal/wire"
)

// span is one timed interval of the traced run. Trace is the id of the
// request it belongs to (0 for background work); Parent is the causing
// span; Cause lists the requests a disk span flushed commits for.
type span struct {
	Trace  int64   `json:"trace,omitempty"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind,omitempty"` // request kind, on request spans
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Cause  []int64 `json:"cause,omitempty"`

	// Pairing keys: a client call and the server's service of the same
	// request share the client port and the request's index on that
	// connection. Commit LSN ranges link disk spans to requests.
	port, seq int
	lsnLo     uint64
	lsnHi     uint64
	bytes     int
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanChunk is how many spans one allocation holds. Appending to one
// growing slice would copy every span recorded so far each time it doubled,
// tens of megabytes in the middle of the traced interval.
const spanChunk = 1 << 14

// tracer keeps spans in memory until the run ends. The nil tracer (timed
// runs) records nothing.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	chunks [][]span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records s, assigning an id unless it has one, and returns the id.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s)
	t.mu.Unlock()
	return s.ID
}

// all returns every recorded span in one slice, once tracing is off.
func (t *tracer) all() []span {
	var out []span
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// frames follows the wire protocol's byte stream in one direction: a 6-byte
// handshake, then frames of a 4-byte big-endian length and a payload whose
// second byte is the request op.
type frames struct {
	skip int
	hdr  [4]byte
	nh   int
	left int
	pos  int
	op   byte
}

func newFrames() frames { return frames{skip: 6} }

// scan advances over p, calling begin at the first byte of each frame and
// end after its last byte.
func (f *frames) scan(p []byte, begin func(), end func(op byte)) {
	for len(p) > 0 {
		if f.skip > 0 {
			n := min(f.skip, len(p))
			f.skip -= n
			p = p[n:]
			continue
		}
		if f.nh < 4 {
			if f.nh == 0 {
				begin()
			}
			n := copy(f.hdr[f.nh:], p)
			f.nh += n
			p = p[n:]
			if f.nh == 4 {
				f.left, f.pos, f.op = int(binary.BigEndian.Uint32(f.hdr[:])), 0, 0
				if f.left == 0 {
					f.nh = 0
					end(0)
				}
			}
			continue
		}
		n := min(f.left, len(p))
		if f.pos <= 1 && f.pos+n > 1 {
			f.op = p[1-f.pos]
		}
		f.pos += n
		f.left -= n
		p = p[n:]
		if f.left == 0 {
			f.nh = 0
			end(f.op)
		}
	}
}

func opName(op byte) string { return wire.Op(op).String() }

// clientConn times each client call at the client.Config.Dial seam: from
// the first byte of the request written to the last byte of the reply read.
// It runs on the goroutine that owns the connection, so it reads that
// worker's current request id without further synchronisation.
type clientConn struct {
	net.Conn
	tr       *tracer
	wk       *worker
	port     int
	out, in  frames
	seq      int
	start    time.Time
	op       byte
	reqBytes int
	resp     []byte // a commit's response frame, for its commit LSN
}

func newClientConn(c net.Conn, tr *tracer, wk *worker) *clientConn {
	cc := &clientConn{Conn: c, tr: tr, wk: wk, out: newFrames(), in: newFrames()}
	if a, ok := c.LocalAddr().(*net.TCPAddr); ok {
		cc.port = a.Port
	}
	return cc
}

func (c *clientConn) Write(p []byte) (int, error) {
	c.out.scan(p, func() { c.start = time.Now(); c.reqBytes = 0 }, func(op byte) { c.op = op })
	c.reqBytes += len(p)
	return c.Conn.Write(p)
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		traced := c.tr.enabled()
		if traced && wire.Op(c.op) == wire.OpCommit {
			c.resp = append(c.resp, p[:n]...)
		}
		c.in.scan(p[:n], func() {}, func(byte) {
			if traced {
				s := span{
					Trace: c.wk.cur, Parent: c.wk.cur, Name: "client." + opName(c.op),
					Start: c.tr.ns(c.start), End: c.tr.ns(time.Now()),
					port: c.port, seq: c.seq, bytes: c.reqBytes,
				}
				var resp wire.Response
				if len(c.resp) > 4 && wire.DecodeResponse(c.resp[4:], &resp) == nil {
					s.lsnLo, s.lsnHi = resp.LSN, resp.LSN
				}
				c.resp = c.resp[:0]
				c.tr.add(s)
			}
			c.seq++
		})
	}
	return n, err
}

// serverConn times the server's service of each request at the
// server.Config.WrapConn seam: from the first byte of the request frame
// read to the last byte of the response written.
type serverConn struct {
	net.Conn
	tr      *tracer
	port    int
	in, out frames
	seq     int
	start   time.Time
	op      byte
}

func newServerConn(c net.Conn, tr *tracer) *serverConn {
	sc := &serverConn{Conn: c, tr: tr, in: newFrames(), out: newFrames()}
	if a, ok := c.RemoteAddr().(*net.TCPAddr); ok {
		sc.port = a.Port
	}
	return sc
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.in.scan(p[:n], func() { c.start = time.Now() }, func(op byte) { c.op = op })
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.out.scan(p[:n], func() {}, func(byte) {
			if c.tr.enabled() {
				c.tr.add(span{
					Name: "server." + opName(c.op), Start: c.tr.ns(c.start), End: c.tr.ns(time.Now()),
					port: c.port, seq: c.seq,
				})
			}
			c.seq++
		})
	}
	return n, err
}

// tracedDevice times the disk.Store under the WAL (the
// engine.Config.WALDevice seam). Each sync flushes the LSNs between the
// previous sync's frontier and the store's synced LSN after it; the WAL
// serialises syncs, so synced needs no lock.
type tracedDevice struct {
	store  *disk.Store
	tr     *tracer
	synced uint64
}

func (d *tracedDevice) Append(p []byte) error {
	t0 := time.Now()
	err := d.store.Append(p)
	if d.tr.enabled() {
		_, first, last, _ := wal.SliceFrom(p, 0)
		d.tr.add(span{Name: "disk.append", Start: d.tr.ns(t0), End: d.tr.ns(time.Now()), lsnLo: first, lsnHi: last, bytes: len(p)})
	}
	return err
}

func (d *tracedDevice) Sync() error {
	t0 := time.Now()
	err := d.store.Sync()
	hi := d.store.SyncedLSN()
	if d.tr.enabled() && hi > d.synced {
		d.tr.add(span{Name: "disk.sync", Start: d.tr.ns(t0), End: d.tr.ns(time.Now()), lsnLo: d.synced + 1, lsnHi: hi})
	}
	d.synced = hi
	return err
}
