package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pressio/internal/core"
	"pressio/internal/fpzip"
	"pressio/internal/h5lite"
	"pressio/internal/huffman"
	"pressio/internal/lossless"
	"pressio/internal/meta"
	"pressio/internal/store"
	"pressio/internal/sz"
	"pressio/internal/trace"
	"pressio/internal/zfp"
)

// The per-layer probes time the benchmark's own calls into each layer's
// public functions on the workload's payloads, and read the program's
// telemetry counters. They add nothing inside the program.

// probeBudget is how long each probe keeps repeating after its minimum.
const probeBudget = 500 * time.Millisecond

// probeReq numbers probe operations apart from workload operations in the
// span dump.
const probeReq = 1 << 40

type prober struct {
	e      *env
	tr     *tracer
	rep    *report
	inputs []*core.Data
	req    int64
}

func probeLayers(e *env, inst instance, tr *tracer, rep *report) error {
	p := &prober{e: e, tr: tr, rep: rep, inputs: inst.probeInputs(), req: probeReq}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"core", p.coreDispatch},
		{"sz", p.szStages},
		{"sz small call", p.szSmallCall},
		{"zfp/fpzip", p.otherCodecs},
		{"meta", p.metaEfficiency},
		{"daemon/cluster", p.serving},
		{"store", p.storeLayer},
		{"telemetry", p.counters},
	} {
		if err := step.fn(); err != nil {
			return fmt.Errorf("%s probe: %w", step.name, err)
		}
	}
	return nil
}

// repeat calls fn with rounds 0, 1, ... at least min times and until
// probeBudget has passed.
func repeat(min int, fn func(round int) error) error {
	start := time.Now()
	for r := 0; r < min || time.Since(start) < probeBudget; r++ {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) root(name string) span {
	p.req++
	return p.tr.start(name, 0, p.req)
}

func (p *prober) child(parent span, name string) span {
	return p.tr.start(name, parent.id, parent.req)
}

func mbOf(ds []*core.Data) float64 {
	var n uint64
	for _, d := range ds {
		n += d.ByteLen()
	}
	return float64(n) / 1e6
}

func szParams() sz.Params {
	return sz.Params{Mode: core.BoundValueRangeRel, Bound: relBound, MaxQuantIntervals: 65536}
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// coreDispatch measures the generic layer's cost: core.Compress through the
// sz_threadsafe plugin against sz.CompressSlice on identical inputs, in
// interleaved pairs whose order alternates (the paper's Fig. 3 quantity).
func (p *prober) coreDispatch() error {
	c, err := newCodec(fieldCodecs[0])
	if err != nil {
		return err
	}
	var rel []float64
	var sumCore, sumDirect time.Duration
	err = repeat(6, func(r int) error {
		root := p.root("probe.core")
		defer root.end()
		var tc, td time.Duration
		for _, in := range p.inputs {
			var viaCore, direct []byte
			runCore := func() error {
				sp := p.child(root, "core.Compress")
				out, err := core.Compress(c, in)
				tc += sp.end()
				if err == nil {
					viaCore = out.Bytes()
				}
				return err
			}
			runDirect := func() error {
				sp := p.child(root, "sz.CompressSlice")
				out, err := sz.CompressSlice(in.Float32s(), in.Dims(), szParams())
				td += sp.end()
				direct = out
				return err
			}
			first, second := runCore, runDirect
			if r%2 == 1 {
				first, second = runDirect, runCore
			}
			if err := first(); err != nil {
				return err
			}
			if err := second(); err != nil {
				return err
			}
			if err := checkEqual("core.Compress against sz.CompressSlice", viaCore, direct); err != nil {
				return err
			}
		}
		rel = append(rel, 100*(float64(tc)-float64(td))/float64(td))
		sumCore, sumDirect = sumCore+tc, sumDirect+td
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("core.dispatch_overhead_pct", medianFloat(rel),
		fmt.Sprintf("median of %d interleaved pairs (mean %.3f ms vs %.3f ms per pass)", len(rel),
			ms(sumCore)/float64(len(rel)), ms(sumDirect)/float64(len(rel))))
	return nil
}

// szSections splits an sz stream the way sz.DecompressSlice reads it: the
// header (sz.ParseHeader), then the quantization radius, the outlier count
// and the Huffman section length as uvarints, then the DEFLATE-packed body
// whose first huffLen bytes are the Huffman section.
func szSections(stream []byte) (packed []byte, huffLen uint64, err error) {
	_, pos, err := sz.ParseHeader(stream)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < 3; i++ {
		v, n := binary.Uvarint(stream[pos:])
		if n <= 0 {
			return nil, 0, sz.ErrCorrupt
		}
		pos += n
		huffLen = v
	}
	return stream[pos:], huffLen, nil
}

// szStages times sz compress and decompress, then each stage separately on
// the real symbol stream and body recovered from each stream. Stage rates
// are per MB of field data, so 1/rate adds up across stages.
func (p *prober) szStages() error {
	var tComp, tDec, tEnc, tHDec, tDef, tInf time.Duration
	var alloc uint64
	var mb float64
	err := repeat(2, func(int) error {
		root := p.root("probe.sz")
		defer root.end()
		for _, in := range p.inputs {
			a0 := allocated()
			sp := p.child(root, "sz.CompressSlice")
			stream, err := sz.CompressSlice(in.Float32s(), in.Dims(), szParams())
			tComp += sp.end()
			alloc += allocated() - a0
			if err != nil {
				return err
			}
			sp = p.child(root, "sz.DecompressSlice")
			vals, dims, err := sz.DecompressSlice[float32](stream)
			tDec += sp.end()
			if err != nil {
				return err
			}
			if err := checkBound(in, core.FromFloat32s(vals, dims...)); err != nil {
				return err
			}

			packed, huffLen, err := szSections(stream)
			if err != nil {
				return err
			}
			sp = p.child(root, "lossless.Inflate")
			body, err := lossless.Inflate(packed)
			tInf += sp.end()
			if err != nil {
				return err
			}
			if huffLen > uint64(len(body)) {
				return fmt.Errorf("huffman section of %d bytes in a %d-byte body", huffLen, len(body))
			}
			sp = p.child(root, "huffman.Decode")
			symbols, alphabet, err := huffman.Decode(body[:huffLen])
			tHDec += sp.end()
			if err != nil {
				return err
			}
			sp = p.child(root, "huffman.Encode")
			enc, err := huffman.Encode(symbols, alphabet)
			tEnc += sp.end()
			if err != nil {
				return err
			}
			if err := checkEqual("huffman.Encode of the decoded symbols", enc, body[:huffLen]); err != nil {
				return err
			}
			sp = p.child(root, "lossless.Deflate")
			def, err := lossless.Deflate(body, 0)
			tDef += sp.end()
			if err != nil {
				return err
			}
			if err := checkEqual("lossless.Deflate of the inflated body", def, packed); err != nil {
				return err
			}
		}
		mb += mbOf(p.inputs)
		return nil
	})
	if err != nil {
		return err
	}
	rate := func(t time.Duration) float64 { return mb / t.Seconds() }
	detail := fmt.Sprintf("%.1f MB of field data", mb)
	p.rep.set("sz.compress_mb_s", rate(tComp), detail)
	p.rep.set("sz.decompress_mb_s", rate(tDec), detail)
	p.rep.set("sz.predict_quantize_ms_per_mb", ms(tComp-tEnc-tDef)/mb, "sz.CompressSlice minus huffman.Encode and lossless.Deflate, "+detail)
	p.rep.set("sz.alloc_bytes_per_mb", float64(alloc)/mb, "heap bytes allocated by sz.CompressSlice, "+detail)
	p.rep.set("huffman.encode_mb_s", rate(tEnc), detail)
	p.rep.set("huffman.decode_mb_s", rate(tHDec), detail)
	p.rep.set("lossless.deflate_mb_s", rate(tDef), detail)
	p.rep.set("lossless.inflate_mb_s", rate(tInf), detail)
	return nil
}

// szSmallCall times one sz compress of the 16 KiB probe slab, where
// per-call set-up dominates.
func (p *prober) szSmallCall() error {
	pl, _, err := newProbeSlab(p.e.seed)
	if err != nil {
		return err
	}
	in, err := core.NewMove(core.DTypeFloat32, pl.raw, pl.dims...)
	if err != nil {
		return err
	}
	var lat []time.Duration
	var alloc uint64
	err = repeat(200, func(int) error {
		root := p.root("probe.sz_small")
		a0 := allocated()
		sp := p.child(root, "sz.CompressSlice")
		out, err := sz.CompressSlice(in.Float32s(), in.Dims(), szParams())
		lat = append(lat, sp.end())
		alloc += allocated() - a0
		root.end()
		if err != nil {
			return err
		}
		return checkEqual("sz.CompressSlice of the probe slab", out, pl.comp)
	})
	if err != nil {
		return err
	}
	p.rep.set("sz.small_call_us", float64(percentile(lat, 50))/float64(time.Microsecond),
		fmt.Sprintf("p50 of %d calls on a %d-byte slab", len(lat), len(pl.raw)))
	p.rep.set("sz.small_call_alloc_bytes", float64(alloc)/float64(len(lat)), fmt.Sprintf("mean of %d calls", len(lat)))
	return nil
}

// otherCodecs times zfp (fixed accuracy at the relative bound) and fpzip
// (lossless; it is the range coder's only caller).
func (p *prober) otherCodecs() error {
	var zc, zd, fc, fd time.Duration
	var mb float64
	err := repeat(2, func(int) error {
		root := p.root("probe.codecs")
		defer root.end()
		for _, in := range p.inputs {
			vals := in.Float32s()
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vals {
				lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
			}
			sp := p.child(root, "zfp.CompressSlice")
			zs, err := zfp.CompressSlice(vals, in.Dims(), zfp.Params{Mode: zfp.ModeFixedAccuracy, Tolerance: relBound * (hi - lo)})
			zc += sp.end()
			if err != nil {
				return err
			}
			sp = p.child(root, "zfp.DecompressSlice")
			zv, zdims, err := zfp.DecompressSlice[float32](zs)
			zd += sp.end()
			if err != nil {
				return err
			}
			if err := checkBound(in, core.FromFloat32s(zv, zdims...)); err != nil {
				return fmt.Errorf("zfp: %w", err)
			}
			sp = p.child(root, "fpzip.CompressSlice")
			fs, err := fpzip.CompressSlice(vals, in.Dims(), fpzip.Params{})
			fc += sp.end()
			if err != nil {
				return err
			}
			sp = p.child(root, "fpzip.DecompressSlice")
			fv, fdims, err := fpzip.DecompressSlice[float32](fs)
			fd += sp.end()
			if err != nil {
				return err
			}
			if err := checkEqual("fpzip lossless decode", core.FromFloat32s(fv, fdims...).Bytes(), in.Bytes()); err != nil {
				return err
			}
		}
		mb += mbOf(p.inputs)
		return nil
	})
	if err != nil {
		return err
	}
	detail := fmt.Sprintf("%.1f MB of field data", mb)
	p.rep.set("zfp.compress_mb_s", mb/zc.Seconds(), detail)
	p.rep.set("zfp.decompress_mb_s", mb/zd.Seconds(), detail)
	p.rep.set("fpzip.compress_mb_s", mb/fc.Seconds(), detail)
	p.rep.set("fpzip.decompress_mb_s", mb/fd.Seconds(), detail)
	return nil
}

// metaEfficiency compares the serial sum of per-item core.Compress times
// with workers x the wall time of meta.CompressMany on the same items.
func (p *prober) metaEfficiency() error {
	c, err := newCodec(fieldCodecs[0])
	if err != nil {
		return err
	}
	workers := min(p.e.nproc, len(p.inputs))
	var eff []float64
	err = repeat(3, func(int) error {
		root := p.root("probe.meta")
		defer root.end()
		var serial time.Duration
		for _, in := range p.inputs {
			sp := p.child(root, "core.Compress")
			_, err := core.Compress(c, in)
			serial += sp.end()
			if err != nil {
				return err
			}
		}
		sp := p.child(root, "meta.CompressMany")
		_, err := meta.CompressMany(c, p.inputs, p.e.nproc)
		wall := sp.end()
		if err != nil {
			return err
		}
		eff = append(eff, float64(serial)/(float64(workers)*float64(wall)))
		return nil
	})
	if err != nil {
		return err
	}
	p.rep.set("meta.parallel_efficiency", medianFloat(eff), fmt.Sprintf("median of %d rounds, %d workers, %d items", len(eff), workers, len(p.inputs)))
	return nil
}

// serving sends the 16 KiB probe slab's /compress request straight to a
// shard and through a router in front of two shards, one at a time,
// against in-process core.Compress on the same payload.
func (p *prober) serving() error {
	pl, codec, err := newProbeSlab(p.e.seed)
	if err != nil {
		return err
	}
	in, err := core.NewMove(core.DTypeFloat32, pl.raw, pl.dims...)
	if err != nil {
		return err
	}
	f, err := startFleet(p.e.nproc)
	if err != nil {
		return err
	}
	cl := newHTTPClient(p.e, 1)
	defer cl.c.CloseIdleConnections()
	direct, routed := "http://"+f.shards[0].Addr(), "http://"+f.router.Addr()
	var tDirect, tRouted, tLocal []time.Duration
	err = repeat(100, func(r int) error {
		root := p.root("probe.serving")
		defer root.end()
		sp := p.child(root, "http.direct.compress")
		err := cl.compress(direct, pl)
		d := sp.end()
		if err != nil {
			return err
		}
		sp = p.child(root, "http.router.compress")
		err = cl.compress(routed, pl)
		rt := sp.end()
		if err != nil {
			return err
		}
		sp = p.child(root, "core.Compress")
		_, err = core.Compress(codec, in)
		l := sp.end()
		if err != nil {
			return err
		}
		if r >= 10 { // the first rounds warm connections and pools
			tDirect, tRouted, tLocal = append(tDirect, d), append(tRouted, rt), append(tLocal, l)
		}
		return nil
	})
	if serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	dp, rp, lp := percentile(tDirect, 50), percentile(tRouted, 50), percentile(tLocal, 50)
	n := len(tDirect)
	p.rep.set("daemon.direct_p50_ms", ms(dp), fmt.Sprintf("p50 of %d sequential %d-byte /compress requests to a shard", n, len(pl.raw)))
	p.rep.set("daemon.http_overhead_ms", ms(dp-lp), fmt.Sprintf("minus in-process core.Compress p50 %.3f ms", ms(lp)))
	p.rep.set("cluster.hop_ms", ms(rp-dp), fmt.Sprintf("router p50 %.3f ms minus direct p50", ms(rp)))
	return nil
}

// storeLayer drives an in-process store with the objects workload's put
// options on the workload's payloads.
func (p *prober) storeLayer() error {
	dir, err := os.MkdirTemp(p.e.dir, "probe-store-")
	if err != nil {
		return err
	}
	s, err := store.Open(dir, store.Options{CheckpointBytes: -1})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = s.Close()
		}
	}()
	var tPut, tH5, tGet, tRows []time.Duration
	var user, alloc int64
	j0 := trace.CounterValue(trace.CtrStoreJournalBytes)
	err = repeat(2, func(r int) error {
		for i, in := range p.inputs {
			po := objectPutOptions(in.Dims()[0])
			want, err := localDecode(in, po)
			if err != nil {
				return err
			}
			root := p.root("probe.store")
			sp := p.child(root, "h5lite.WriteDataset")
			err = h5lite.Create("").WriteDataset("data", in, h5lite.DatasetOptions{ChunkRows: po.ChunkRows, Filter: po.Filter, FilterOptions: po.FilterOptions})
			tH5 = append(tH5, sp.end())
			if err != nil {
				root.end()
				return err
			}
			name := fmt.Sprintf("probe/%d-%d", r, i)
			a0 := allocated()
			sp = p.child(root, "store.Put")
			_, err = s.Put(name, in, po)
			tPut = append(tPut, sp.end())
			alloc += int64(allocated() - a0)
			user += int64(in.ByteLen())
			if err != nil {
				root.end()
				return err
			}
			sp = p.child(root, "store.Get")
			got, _, err := s.Get(name)
			tGet = append(tGet, sp.end())
			if err == nil {
				err = checkEqual("store.Get", got.Bytes(), want)
			}
			if err != nil {
				root.end()
				return err
			}
			rows := min(uint64(objectSlabRows), in.Dims()[0])
			sp = p.child(root, "store.GetRows")
			got, _, err = s.GetRows(name, 0, rows)
			tRows = append(tRows, sp.end())
			root.end()
			if err == nil {
				err = checkEqual("store.GetRows", got.Bytes(), want[:uint64(len(want))/in.Dims()[0]*rows])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	journal, err := p.e.registered(trace.CtrStoreJournalBytes)
	if err != nil {
		return err
	}
	journal -= j0
	var segments int64
	entries, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		return err
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return err
		}
		segments += info.Size()
	}

	var tCkpt []time.Duration
	for i := 0; i < 3; i++ {
		in := p.inputs[i%len(p.inputs)]
		if _, err := s.Put(fmt.Sprintf("probe/ckpt-%d", i), in, objectPutOptions(in.Dims()[0])); err != nil {
			return err
		}
		root := p.root("probe.store")
		sp := p.child(root, "store.Checkpoint")
		err := s.Checkpoint()
		tCkpt = append(tCkpt, sp.end())
		root.end()
		if err != nil {
			return err
		}
	}
	closed = true
	if err := s.Close(); err != nil {
		return err
	}
	n := len(tPut)
	p.rep.set("store.put_ms", ms(percentile(tPut, 50)), fmt.Sprintf("p50 of %d in-process puts", n))
	p.rep.set("store.put_alloc_bytes_per_byte", float64(alloc)/float64(user), fmt.Sprintf("heap bytes per user byte over %d puts", n))
	p.rep.set("h5lite.filter_write_ms", ms(percentile(tH5, 50)), fmt.Sprintf("p50 of %d h5lite.WriteDataset calls with the put's filter", n))
	p.rep.set("store.checkpoint_ms", ms(percentile(tCkpt, 50)), fmt.Sprintf("p50 of %d checkpoints of %d objects", len(tCkpt), n))
	p.rep.set("store.journal_bytes_per_byte", float64(journal)/float64(user), fmt.Sprintf("%d journal bytes for %d user bytes", journal, user))
	p.rep.set("store.segment_bytes_per_byte", float64(segments)/float64(user), fmt.Sprintf("%d segment bytes for %d user bytes", segments, user))
	p.rep.set("store.get_ms", ms(percentile(tGet, 50)), fmt.Sprintf("p50 of %d full gets", n))
	p.rep.set("store.get_rows_ms", ms(percentile(tRows, 50)), fmt.Sprintf("p50 of %d %d-row gets", n, objectSlabRows))
	if _, ok := p.rep.values["store.reopen_s"]; !ok {
		start := time.Now()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		p.rep.set("store.reopen_s", time.Since(start).Seconds(), "store.Open on the probe's directory")
		return s.Close()
	}
	return nil
}

// counters derives ratios from the program's telemetry counters over the
// whole run: workload traffic and probes together.
func (p *prober) counters() error {
	fsyncs, err := p.e.delta(trace.CtrStoreJournalFsyncs)
	if err != nil {
		return err
	}
	puts, err := p.e.delta(trace.CtrStorePuts)
	if err != nil {
		return err
	}
	p.rep.set("store.fsyncs_per_put", float64(fsyncs)/float64(puts), fmt.Sprintf("%d fsyncs, %d puts", fsyncs, puts))

	routed, err := p.e.delta(trace.CtrClusterRequests)
	if err != nil {
		return err
	}
	retries, err := p.e.rareDelta(trace.CtrClusterRetries, routed)
	if err != nil {
		return err
	}
	hedges, err := p.e.rareDelta(trace.CtrClusterHedges, routed)
	if err != nil {
		return err
	}
	p.rep.set("cluster.retries_per_req", float64(retries)/float64(routed), fmt.Sprintf("%d retries, %d routed requests", retries, routed))
	p.rep.set("cluster.hedge_share", float64(hedges)/float64(routed), fmt.Sprintf("%d hedges, %d routed requests", hedges, routed))

	reqs, shed := p.e.httpRequests.Load(), p.e.httpShed.Load()
	p.rep.set("service.shed_share", float64(shed)/float64(reqs), fmt.Sprintf("%d of %d HTTP responses carried X-Pressio-Error: shed", shed, reqs))
	return nil
}

// registered reads a telemetry counter, which must be registered.
func (e *env) registered(name string) (int64, error) {
	for _, n := range trace.CounterNames() {
		if n == name {
			return trace.CounterValue(name), nil
		}
	}
	return 0, fmt.Errorf("telemetry counter %q is not registered", name)
}

// delta is a registered counter's growth since the run began.
func (e *env) delta(name string) (int64, error) {
	v, err := e.registered(name)
	return v - e.counters0[name], err
}

// rareDelta reads a counter of router events that may never have happened
// in the run (the program registers a counter on its first increment). An
// unregistered one reads as zero only when the per-peer counters prove it:
// every peer attempt beyond one per routed request must be a retry, hedge or
// failover, so if the registered ones account for all of them, the missing
// counter did not move. Otherwise it is an error.
func (e *env) rareDelta(name string, routed int64) (int64, error) {
	if v, err := e.delta(name); err == nil {
		return v, nil
	}
	var attempts, explained int64
	for _, n := range trace.CounterNames() {
		if strings.HasPrefix(n, "cluster.peer.") && (strings.HasSuffix(n, ".requests") || strings.HasSuffix(n, ".failures")) {
			attempts += trace.CounterValue(n) - e.counters0[n]
		}
	}
	for _, n := range []string{trace.CtrClusterRetries, trace.CtrClusterHedges, trace.CtrClusterFailovers} {
		if v, err := e.delta(n); err == nil {
			explained += v
		}
	}
	if attempts-routed > explained {
		return 0, fmt.Errorf("telemetry counter %q is not registered, yet %d routed requests made %d peer attempts and only %d are retries, hedges or failovers",
			name, routed, attempts, explained)
	}
	return 0, nil
}
