package main

import "sort"

// callStat aggregates spans of one name.
type callStat struct {
	n    int
	ns   int64     // summed duration
	self int64     // summed self time: duration minus the children's
	dur  []float64 // µs, one per span
}

func (s *callStat) meanUs() float64 { return div(float64(s.ns), float64(s.n)) / 1e3 }

// callStats aggregates spans by name, and by "<transaction kind>/<name>"
// for the calls made inside each kind of transaction. A caller makes
// one call at a time, so a span's children never overlap and their
// durations simply add.
func callStats(spans []span) map[string]*callStat {
	root := map[uint64]string{}
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			root[s.ID] = s.Name
		} else {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*callStat{}
	add := func(key string, s span) {
		st := out[key]
		if st == nil {
			st = &callStat{}
			out[key] = st
		}
		d := s.End - s.Start
		st.n++
		st.ns += d
		st.self += d - child[s.ID]
		st.dur = append(st.dur, float64(d)/1e3)
	}
	for _, s := range spans {
		add(s.Name, s)
		if s.Parent != 0 {
			add(root[s.Tx]+"/"+s.Name, s)
		}
	}
	return out
}

// stat returns the named aggregate, empty when no such span exists.
func stat(m map[string]*callStat, name string) *callStat {
	if s := m[name]; s != nil {
		return s
	}
	return &callStat{}
}

// hitRatio is hits / (hits + misses).
func hitRatio(hits, misses float64) float64 { return div(hits, hits+misses) }

// perLayer computes the traced run's metrics from the counter deltas
// and spans of the traced phase p; plain is the untraced phase that ran
// just before it on the same data.
func (o *outcome) perLayer(w *spec, plain, p *phase, allocsPerRow float64) {
	txs := float64(p.txs())
	rows := float64(p.rows)
	commits := p.delta("txn.commits")
	scanned := p.delta("query.rows_scanned")
	writes := float64(len(p.lat["write"]))
	calls := callStats(p.spans)

	o.add("query.rows_per_yield", "count", div(scanned, p.delta("query.rows_yielded")))
	o.add("query.allocs_per_row", "count", allocsPerRow)
	o.add("object.cache_hit_ratio", "ratio", hitRatio(p.delta("object.cache_hits"), p.delta("object.cache_misses")))
	o.add("object.evictions_per_row", "count", div(p.delta("object.cache_evictions"), rows))
	o.add("storage.pool_hit_ratio", "ratio", hitRatio(p.delta("pool.hits"), p.delta("pool.misses")))
	o.add("storage.pins_per_row", "count", div(p.delta("pool.pins"), rows))
	o.add("storage.page_reads_per_row", "count", div(p.delta("storage.page_reads"), rows))
	o.add("storage.dw_flushes_per_ktx", "count", 1000*div(p.delta("storage.dw_flushes"), txs))
	o.add("storage.page_writes_per_commit", "count", div(p.delta("storage.page_writes"), commits))
	o.add("txn.commit_us", "us", p.meanUs("txn.commit_ns"))
	o.add("txn.lock_waits_per_ktx", "count", 1000*div(p.delta("txn.lock_waits"), txs))
	o.add("txn.commit_ratio", "ratio", div(commits, p.delta("txn.begins")))
	o.add("txn.prepared_per_xtx", "count", div(p.delta("txn.prepared_total"), float64(len(p.lat["xtransfer"]))))
	o.add("wal.fsyncs_per_commit", "count", div(p.delta("wal.fsyncs"), commits))
	o.add("wal.group_size", "count", div(p.delta("wal.group_commit_size"), p.delta("wal.group_commits")))
	o.add("wal.fsync_us", "us", p.meanUs("wal.fsync_ns"))
	o.add("wal.bytes_per_commit", "B", div(p.delta("wal.append_bytes"), commits))
	o.add("trigger.firings_per_write", "count", div(p.delta("trigger.firings"), writes))
	o.add("client.deref_us", "us", stat(calls, "deref").meanUs())
	o.add("client.commit_us", "us", stat(calls, "commit").meanUs())
	o.add("client.cache_hit_ratio", "ratio", hitRatio(p.delta("client.cache_hits"), p.delta("client.cache_misses")))
	o.add("client.cross_per_tx", "ratio", div(p.delta("client.shard.cross_commits"), txs))
	o.add("server.requests_per_tx", "count", div(p.delta("server.requests"), txs))
	o.add("server.bytes_out_per_tx", "B", div(p.delta("server.bytes_out"), txs))
	plainTPS := float64(plain.txs()) / plain.elapsed.Seconds()
	tracedTPS := txs / p.elapsed.Seconds()
	o.add("trace.overhead_pct", "%", 100*div(plainTPS-tracedTPS, plainTPS))
	o.linef("trace untraced_tx_per_s %g traced_tx_per_s %g spans %d", plainTPS, tracedTPS, len(p.spans))

	// Layer figures that only some workloads have are report lines.
	forall := stat(calls, "forall")
	if w.embedded {
		if forall.n > 0 && scanned > 0 {
			o.linef("query.ns_per_row %g ns (%d foralls, %g rows)", float64(forall.ns)/scanned, forall.n, scanned)
		}
		if n := len(p.lat["scan"]); n > 0 {
			o.linef("storage.dw_flushes_per_scan %g count (%d scans)", p.delta("storage.dw_flushes")/float64(n), n)
		}
		// Tx.Commit, timed by the caller.
		commit := stat(calls, "commit").dur
		o.figure("txn.commit_us_p50", "us", commit, 0.5, 1)
		o.figure("txn.commit_us_p99", "us", commit, 0.99, 1)
	} else {
		serverDeref := p.meanUs("server.req_ns.deref")
		o.linef("server.deref_us %g us", serverDeref)
		o.linef("server.commit_us %g us", p.meanUs("server.req_ns.commit"))
		if p.delta("server.req_ns.forall.count") > 0 {
			o.linef("server.forall_us %g us", p.meanUs("server.req_ns.forall"))
		}
		o.linef("wire.overhead_us %g us (client.deref_us - server.deref_us)", stat(calls, "deref").meanUs()-serverDeref)
	}
	if x := stat(calls, "xtransfer/commit"); x.n > 0 {
		o.linef("client.xcommit_us %g us n=%d", x.meanUs(), x.n)
	}
	if !w.embedded && forall.n > 0 {
		o.linef("client.scatter_us %g us n=%d", forall.meanUs(), forall.n)
	}
	names := make([]string, 0, len(calls))
	for name := range calls {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := calls[name]
		o.linef("span %s n=%d self_us %g mean_us %g", name, s.n, div(float64(s.self), float64(s.n))/1e3, s.meanUs())
	}
}
