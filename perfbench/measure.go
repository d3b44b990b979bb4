package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"adhoctx/internal/engine"
	"adhoctx/internal/obs"
	"adhoctx/internal/wire"
)

// Registry instruments read before and after the traced interval.
var (
	counterNames = []string{
		"lock_acquires_total", "lock_waits_total", "lock_slow_paths_total", "lock_confirms_total",
		"wal_appends_total", "wal_fsyncs_total", "kv_commands_total",
		"server_bytes_read_total", "server_bytes_written_total", "server_sessions_rejected_total",
	}
	histNames = append([]string{
		"engine_statement_seconds", "engine_commit_seconds", "lock_wait_seconds", "wal_group_commit_batch_size",
	}, opHists()...)
	// serviceOps are the ops whose server service time is reported alone.
	serviceOps = []wire.Op{wire.OpBegin, wire.OpCommit, wire.OpSelect, wire.OpInsert, wire.OpUpdate, wire.OpKV}
)

func opHist(op wire.Op) string { return fmt.Sprintf("wire_request_seconds{op=%q}", op.String()) }

func opHists() []string {
	var out []string
	for _, op := range wire.Ops {
		out = append(out, opHist(op))
	}
	return out
}

// sample is the state every delta-based metric is taken from.
type sample struct {
	at        time.Time
	stats     engine.StatsSnapshot
	retries   int64
	counters  map[string]int64
	hists     map[string]obs.HistogramSnapshot
	mem       runtime.MemStats
	setnx     int64
	setnxBusy int64
}

func takeSample(s *stack) sample {
	out := sample{at: time.Now(), stats: s.eng.Stats().Snapshot(), counters: map[string]int64{}, hists: map[string]obs.HistogramSnapshot{}}
	for _, c := range s.clients {
		out.retries += c.Retries()
	}
	for _, n := range counterNames {
		out.counters[n] = s.reg.Counter(n).Value()
	}
	for _, n := range histNames {
		out.hists[n] = s.reg.Histogram(n).Snapshot()
	}
	runtime.ReadMemStats(&out.mem)
	for _, wk := range s.workers {
		out.setnx += wk.setnx
		out.setnxBusy += wk.setnxBusy
	}
	return out
}

// histDelta is b - a, bucket by bucket.
func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	return d
}

// histQuantile estimates a quantile from power-of-two buckets, interpolating
// geometrically inside the bucket that holds the rank.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			frac := (rank - cum) / float64(n)
			if i == 0 {
				return frac
			}
			return float64(obs.BucketUpper(i)/2) * math.Pow(2, frac)
		}
		cum += float64(n)
	}
	return float64(h.Max)
}

// measure holds one run's phases and the samples around the interval the
// metrics cover.
type measure struct {
	s            *stack
	tr           *tracer
	cfg          config
	from, to     sample
	closed, open phase
	untraced     phase
	ckpts        []checkpoint
	ckptErr      error
	forcedGCs    uint32  // inPhase collections inside the traced interval
	rss          float64 // peak RSS in bytes when the last phase ended
}

func (m *measure) start() { m.from = takeSample(m.s) }

// stop samples the end of the measured interval. It reads peak RSS before
// the oracle, whose table scans are not the server's memory.
func (m *measure) stop() { m.to, m.rss = takeSample(m.s), peakRSS() }

// inPhase runs one measured phase. It first collects garbage, so every
// phase starts from the same heap state and its GC cycles fall at similar
// offsets from run to run; on the durable workload the background
// checkpoint ticker runs alongside.
func (m *measure) inPhase(fn func()) {
	runtime.GC()
	if !m.from.at.IsZero() {
		m.forcedGCs++
	}
	if !m.s.w.durable {
		fn()
		return
	}
	cp := startCheckpointer(m.s, checkpointEvery, m.tr)
	fn()
	log, err := cp.halt()
	if m.tr.enabled() || !m.cfg.trace {
		m.ckpts = append(m.ckpts, log...)
	}
	if err != nil && m.ckptErr == nil {
		m.ckptErr = err
	}
}

func (m *measure) closedPhase(streamBase int64, d time.Duration) phase {
	var p phase
	m.inPhase(func() { p = closedLoop(m.s, m.cfg.seed, streamBase, d, m.tr) })
	return p
}

func (m *measure) openPhase(stream int64, d time.Duration) phase {
	sched := schedule(m.s.w, m.cfg.seed, stream, d)
	var p phase
	m.inPhase(func() { p = openLoop(m.s, sched, d, m.tr) })
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(ns int64) float64        { return float64(ns) / 1e3 }

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// latency is an outcome's latency in ms. A failed request missed every
// latency limit; it counts as the whole phase length.
func (p *phase) latency(o *outcome) float64 {
	if o.ok {
		return ms(o.lat)
	}
	return ms(p.wall)
}

// latencyQuantile is the q-quantile of an open-loop phase's read or write
// latencies.
func (p *phase) latencyQuantile(read bool, q float64) float64 {
	var l []float64
	for i := range p.outcomes {
		if o := &p.outcomes[i]; o.read == read {
			l = append(l, p.latency(o))
		}
	}
	return quantile(l, q)
}

// windowMedian is the median over an open-loop phase's windows, by due
// time, of each window's median read or write latency. A checkpoint stall
// delays every request due in the second or two it spans, about a fifth of
// a phase's requests; the median window is one without a stall.
func (p *phase) windowMedian(read bool) float64 {
	byWindow := map[time.Duration][]float64{}
	for i := range p.outcomes {
		if o := &p.outcomes[i]; o.read == read {
			w := o.due / window
			byWindow[w] = append(byWindow[w], p.latency(o))
		}
	}
	var meds []float64
	for _, l := range byWindow {
		meds = append(meds, median(l))
	}
	return median(meds)
}

// windowRates returns, for each full window of a closed-loop phase, the
// committed requests per second and the CPU µs per committed request.
func (p *phase) windowRates() (tps, cpu []float64) {
	for k := 1; k < len(p.marks); k++ {
		lo, hi := p.marks[k-1], p.marks[k]
		if k > 1 && hi.at-lo.at < window/2 {
			continue // the stub after the last tick of a longer phase
		}
		var n float64
		for _, o := range p.outcomes {
			if o.ok && o.end >= lo.at && o.end < hi.at {
				n++
			}
		}
		tps = append(tps, n/(hi.at-lo.at).Seconds())
		cpu = append(cpu, per(float64(hi.cpu-lo.cpu)/1e3, n))
	}
	return tps, cpu
}

func (p *phase) tps() float64 { return per(float64(p.committed()), p.wall.Seconds()) }

// endToEnd fills the metrics a user of the server sees.
func (m *measure) endToEnd(out map[string]metric, setup float64) {
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", setup)
	tps, cpu := m.closed.windowRates()
	put("tps", "1/s", median(tps))
	put("cpu_us_per_txn", "us", median(cpu))
	put("read_p50_ms", "ms", m.open.windowMedian(true))
	put("write_p50_ms", "ms", m.open.windowMedian(false))
	put("mem_mb", "MB", m.rss/(1<<20))
}

// link pairs each server span with the client call of the same request and
// names the requests whose commits each disk sync flushed.
func link(spans []span) {
	type key struct{ port, seq int }
	calls := map[key]*span{}
	type commit struct {
		lsn   uint64
		trace int64
	}
	var commits []commit
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.Name, "client.") {
			calls[key{s.port, s.seq}] = s
			if s.lsnHi > 0 {
				commits = append(commits, commit{s.lsnHi, s.Trace})
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].lsn < commits[j].lsn })
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "server."):
			if c, ok := calls[key{s.port, s.seq}]; ok {
				s.Trace, s.Parent = c.Trace, c.ID
			}
		case s.Name == "disk.sync":
			j := sort.Search(len(commits), func(j int) bool { return commits[j].lsn >= s.lsnLo })
			for ; j < len(commits) && commits[j].lsn <= s.lsnHi; j++ {
				s.Cause = append(s.Cause, commits[j].trace)
			}
		}
	}
}

// perLayer fills the per-layer metrics over the traced interval.
func (m *measure) perLayer(out map[string]metric, spans []span, recovers []float64) {
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	committed := float64(m.closed.committed() + m.open.committed())
	a, f := m.closed.counts()
	oa, of := m.open.counts()
	wall := m.to.at.Sub(m.from.at)
	stats := m.to.stats.Sub(m.from.stats)
	dc := func(n string) float64 { return float64(m.to.counters[n] - m.from.counters[n]) }
	dh := func(n string) obs.HistogramSnapshot { return histDelta(m.from.hists[n], m.to.hists[n]) }

	// Spans by layer.
	byID := map[int64]*span{}
	var calls, kvCalls, nets, syncs, snaps, ckptWrites []float64
	var reqTime, callTime, wireSelf, serverTime, diskTime, appendBytes float64
	var likes float64
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		d := float64(s.dur())
		switch {
		case s.Name == "request":
			reqTime += d
			if s.Kind == kindLike {
				likes++
			}
		case strings.HasPrefix(s.Name, "client."):
			calls = append(calls, us(s.dur()))
			callTime += d
			if s.Name == "client."+wire.OpKV.String() {
				kvCalls = append(kvCalls, us(s.dur()))
			}
		case strings.HasPrefix(s.Name, "server."):
			serverTime += d
			if c, ok := byID[s.Parent]; ok {
				net := float64(c.dur()) - d
				nets = append(nets, net/1e3)
				wireSelf += net
			}
		case s.Name == "disk.sync":
			syncs = append(syncs, us(s.dur()))
			diskTime += d
		case s.Name == "disk.append":
			diskTime += d
			appendBytes += float64(s.bytes)
		case s.Name == "engine.snapshot":
			snaps = append(snaps, ms(time.Duration(s.dur())))
		case s.Name == "disk.checkpoint":
			ckptWrites = append(ckptWrites, ms(time.Duration(s.dur())))
		}
	}
	var ckptBytes []float64
	for _, c := range m.ckpts {
		ckptBytes = append(ckptBytes, float64(c.bytes)/(1<<20))
	}

	put("client.rtt_p50_us", "us", quantile(calls, 0.5))
	put("client.round_trips_per_txn", "count", per(float64(len(calls)), committed))
	put("client.retries_per_ktxn", "count", per(1000*float64(m.to.retries-m.from.retries), committed))
	var waits []float64
	for _, o := range m.open.outcomes {
		waits = append(waits, ms(o.wait))
	}
	put("client.conn_wait_p99_ms", "ms", quantile(waits, 0.99))

	put("wire.bytes_per_txn", "B", per(dc("server_bytes_read_total")+dc("server_bytes_written_total"), committed))
	put("wire.net_p50_us", "us", quantile(nets, 0.5))

	var all obs.HistogramSnapshot
	for _, op := range wire.Ops {
		h := dh(opHist(op))
		all.Count += h.Count
		for i := range all.Buckets {
			all.Buckets[i] += h.Buckets[i]
		}
	}
	put("server.service_p50_us", "us", histQuantile(all, 0.5)/1e3)
	put("server.service_p99_us", "us", histQuantile(all, 0.99)/1e3)
	for _, op := range serviceOps {
		h := dh(opHist(op))
		put("server.service_p50_us."+op.String(), "us", histQuantile(h, 0.5)/1e3)
		put("server.service_p99_us."+op.String(), "us", histQuantile(h, 0.99)/1e3)
	}
	put("server.rejected", "count", dc("server_sessions_rejected_total"))

	put("engine.stmt_p50_us", "us", histQuantile(dh("engine_statement_seconds"), 0.5)/1e3)
	commitH := dh("engine_commit_seconds")
	put("engine.commit_p50_us", "us", histQuantile(commitH, 0.5)/1e3)
	put("engine.commit_p99_us", "us", histQuantile(commitH, 0.99)/1e3)
	put("engine.commit_ratio", "ratio", per(float64(stats.Commits), float64(stats.Begins)))
	put("engine.deadlocks_per_ktxn", "count", per(1000*float64(stats.Deadlocks), committed))
	put("engine.occ_conflict_ratio", "ratio", per(float64(stats.OCCConflicts), float64(stats.OCCCommits+stats.OCCConflicts)))
	put("engine.snapshot_ms", "ms", median(snaps))

	waitH := dh("lock_wait_seconds")
	put("lockmgr.acquires_per_txn", "count", per(dc("lock_acquires_total"), committed))
	put("lockmgr.waits_per_txn", "count", per(dc("lock_waits_total"), committed))
	put("lockmgr.wait_p50_us", "us", histQuantile(waitH, 0.5)/1e3)
	put("lockmgr.wait_p99_us", "us", histQuantile(waitH, 0.99)/1e3)
	put("lockmgr.wait_share", "ratio", per(float64(waitH.Sum), reqTime))
	put("lockmgr.slow_paths_per_ktxn", "count", per(1000*dc("lock_slow_paths_total"), committed))
	put("lockmgr.confirms_per_ktxn", "count", per(1000*dc("lock_confirms_total"), committed))

	put("kv.cmds_per_like", "count", per(dc("kv_commands_total"), likes))
	put("kv.rtt_p50_us", "us", quantile(kvCalls, 0.5))
	put("kv.setnx_busy_ratio", "ratio", per(float64(m.to.setnxBusy-m.from.setnxBusy), float64(m.to.setnx-m.from.setnx)))

	put("wal.commits_per_fsync", "count", per(dc("wal_appends_total"), dc("wal_fsyncs_total")))
	put("wal.batch_p99", "count", histQuantile(dh("wal_group_commit_batch_size"), 0.99))

	put("disk.sync_p50_us", "us", quantile(syncs, 0.5))
	put("disk.sync_p99_us", "us", quantile(syncs, 0.99))
	put("disk.sync_busy_share", "ratio", per(diskTime, float64(wall)))
	put("disk.bytes_per_txn", "B", per(appendBytes, committed))
	put("disk.checkpoint_ms", "ms", median(ckptWrites))
	put("disk.checkpoint_mb", "MB", median(ckptBytes))
	put("disk.checkpoints", "count", float64(len(snaps)))
	var rec float64
	if m.s.w.durable {
		rec = median(recovers)
	}
	put("disk.recover_ms", "ms", rec)

	put("go.alloc_kb_per_txn", "KB", per(float64(m.to.mem.TotalAlloc-m.from.mem.TotalAlloc)/1024, committed))
	put("go.gc_cycles_per_ktxn", "count", per(1000*float64(m.to.mem.NumGC-m.from.mem.NumGC-m.forcedGCs), committed))

	var late []float64
	for _, o := range m.open.outcomes {
		if o.slept {
			late = append(late, ms(o.late))
		}
	}
	// The p99s are per-layer figures: on a shared 2-CPU host a few
	// collector or scheduler stalls per run decide them, and they moved by
	// more than any usable bound between runs of the same code.
	put("read_p99_ms", "ms", m.open.latencyQuantile(true, 0.99))
	put("write_p99_ms", "ms", m.open.latencyQuantile(false, 0.99))
	put("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	put("trace.overhead_ratio", "ratio", per(m.closed.tps(), m.untraced.tps()))
	put("fail_ratio", "ratio", per(float64(f+of), float64(a+oa)))

	put("self.loadgen_us_per_txn", "us", per((reqTime-callTime)/1e3, committed))
	put("self.wire_us_per_txn", "us", per(wireSelf/1e3, committed))
	put("self.server_us_per_txn", "us", per(serverTime/1e3, committed))
	put("self.disk_us_per_txn", "us", per(diskTime/1e3, committed))
}
