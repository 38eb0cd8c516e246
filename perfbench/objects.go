package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pressio/internal/core"
	"pressio/internal/daemon"
	"pressio/internal/h5lite"
	"pressio/internal/sdrbench"
	"pressio/internal/store"
)

// The objects workload: a pressiod serving its object store over HTTP to a
// closed loop of nproc clients mixing overwriting PUTs with full, row and
// byte-range GETs.
const (
	objectNames      = 8
	objectVariants   = 8
	objectZ          = 32 // rows along dim 0; 32x64x64 float32 is 512 KiB
	objectSlabRows   = 4
	objectRangeBytes = 16 << 10
	// objectCheckpointBytes makes the store checkpoint (and collect
	// overwritten segments) every few dozen PUTs, several times a run.
	objectCheckpointBytes = 2 << 20
)

// objectPutOptions is how every object is stored: an sz filter per chunk.
func objectPutOptions(rows uint64) store.PutOptions {
	return store.PutOptions{
		Filter:        fieldCodecs[0].name,
		FilterOptions: map[string]float64{core.KeyRel: relBound},
		ChunkRows:     max(1, rows/4),
	}
}

// localDecode is what a GET must return for d: d written and read back
// through an in-memory container with the same filter.
func localDecode(d *core.Data, po store.PutOptions) ([]byte, error) {
	f := h5lite.Create("")
	err := f.WriteDataset("data", d, h5lite.DatasetOptions{ChunkRows: po.ChunkRows, Filter: po.Filter, FilterOptions: po.FilterOptions})
	if err != nil {
		return nil, err
	}
	dec, err := f.ReadDataset("data")
	if err != nil {
		return nil, err
	}
	if err := checkBound(d, dec); err != nil {
		return nil, err
	}
	return dec.Bytes(), nil
}

type objectsInst struct {
	e        *env
	dir      string
	variants []*core.Data
	expected [][]byte // local decode of each variant
	query    string   // PUT query: shape, filter and chunking
	d        *daemon.Daemon
	client   *httpClient
	base     string
	current  []int // variant each name holds; name i is owned by client i%nproc
	rounds   int
	reqs     atomic.Int64 // operations so far; span request ids
}

func setupObjects(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return nil, err
	}
	o := &objectsInst{e: e, dir: dir, client: newHTTPClient(e, e.nproc), current: make([]int, objectNames)}
	po := objectPutOptions(objectZ)
	for v := 0; v < objectVariants; v++ {
		// Each chunk is its own realisation, so the compressibility of what
		// the store holds varies little from seed to seed.
		raw := make([]byte, 0, objectZ*64*64*4)
		for c := uint64(0); c < objectZ/po.ChunkRows; c++ {
			raw = append(raw, sdrbench.NYXDensity(int(po.ChunkRows), 64, 64, subSeed(e.seed, 300+objectVariants*v+int(c))).Bytes()...)
		}
		d, err := core.NewMove(core.DTypeFloat32, raw, objectZ, 64, 64)
		if err != nil {
			return nil, err
		}
		want, err := localDecode(d, po)
		if err != nil {
			return nil, fmt.Errorf("variant %d: %w", v, err)
		}
		o.variants = append(o.variants, d)
		o.expected = append(o.expected, want)
	}
	o.query = fmt.Sprintf("?dims=%d,64,64&dtype=float32&filter=%s&chunk_rows=%d&fopt=%s=%g",
		objectZ, po.Filter, po.ChunkRows, core.KeyRel, relBound)

	if err := o.start(); err != nil {
		return nil, err
	}
	for i := range o.current {
		o.current[i] = i % objectVariants
		if _, err := o.put(i, o.current[i]); err != nil {
			_, _ = o.finish()
			return nil, fmt.Errorf("initial put: %w", err)
		}
	}
	// Restart on the same directory: ready now includes journal replay.
	if err := o.d.Drain(); err != nil {
		return nil, err
	}
	if err := o.start(); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *objectsInst) start() error {
	d, err := startDaemon(daemon.Config{Concurrency: o.e.nproc, StoreDir: o.dir, StoreCheckpointBytes: objectCheckpointBytes})
	if err != nil {
		return err
	}
	o.d, o.base = d, "http://"+d.Addr()
	return nil
}

func (o *objectsInst) probeInputs() []*core.Data { return o.variants }

// finish drains the daemon (its store checkpoints on close), then measures
// what the run left on disk and how long reopening it takes.
func (o *objectsInst) finish() (map[string]endValue, error) {
	err := o.d.Drain()
	o.client.c.CloseIdleConnections()
	if err != nil {
		return nil, err
	}
	var disk int64
	err = filepath.WalkDir(o.dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	live := int64(objectNames) * int64(o.variants[0].ByteLen())
	start := time.Now()
	s, err := store.Open(o.dir, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	reopen := time.Since(start)
	if err := s.Close(); err != nil {
		return nil, err
	}
	return map[string]endValue{
		"stored_bytes_per_byte": {float64(disk) / float64(live), fmt.Sprintf("%d bytes on disk for %d live bytes after drain", disk, live)},
		"store.reopen_s":        {reopen.Seconds(), "store.Open on the directory the run left"},
	}, nil
}

func (o *objectsInst) url(name int) string {
	return fmt.Sprintf("%s/objects/obj-%02d", o.base, name)
}

// putInfo checks a PUT's answer and returns the stored (compressed) size.
func putInfo(body []byte, status int) (int64, error) {
	if status != http.StatusCreated {
		return 0, fmt.Errorf("PUT status %d: %s", status, body)
	}
	var info store.ObjectInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, fmt.Errorf("PUT response: %w", err)
	}
	return int64(info.StoredBytes), nil
}

// put stores variant v under name and returns the stored size.
func (o *objectsInst) put(name, v int) (int64, error) {
	body, status, err := o.client.do(http.MethodPut, o.url(name)+o.query, o.variants[v].Bytes(), nil)
	if err != nil {
		return 0, err
	}
	return putInfo(body, status)
}

var objectSpans = [...]string{"objects.put", "objects.get", "objects.get_rows", "objects.get_range"}

// op runs one seeded operation of client c, checks and logs it, and
// returns when its answer arrived; the check is not part of its latency.
func (o *objectsInst) op(c int, rng *rand.Rand, req int64, tr *tracer, log *opLog) (answered time.Time) {
	name := c + o.e.nproc*rng.Intn((objectNames-c+o.e.nproc-1)/o.e.nproc)
	size := len(o.expected[0])
	rowBytes := size / objectZ
	v := o.current[name]
	method, url, status := http.MethodGet, o.url(name), http.StatusOK
	var body, want []byte
	var header map[string]string
	// 2/8 PUT, 3/8 full GET, 2/8 rows, 1/8 Range: the median operation is
	// a full GET, away from the edges of the PUT and slab latency clusters.
	choice := [8]int{0, 0, 1, 1, 1, 2, 2, 3}[rng.Intn(8)]
	switch choice {
	case 0:
		v = rng.Intn(objectVariants)
		method, url, status, body = http.MethodPut, url+o.query, http.StatusCreated, o.variants[v].Bytes()
	case 1:
		want = o.expected[v]
	case 2:
		start := rng.Intn(objectZ - objectSlabRows + 1)
		url += fmt.Sprintf("?rows=%d,%d", start, objectSlabRows)
		want = o.expected[v][start*rowBytes : (start+objectSlabRows)*rowBytes]
	default:
		off := rng.Intn(size - objectRangeBytes + 1)
		header = map[string]string{"Range": fmt.Sprintf("bytes=%d-%d", off, off+objectRangeBytes-1)}
		status = http.StatusPartialContent
		want = o.expected[v][off : off+objectRangeBytes]
	}
	sp := tr.start(objectSpans[choice], 0, req)
	got, gotStatus, err := o.client.do(method, url, body, header)
	lat := sp.end()
	answered = time.Now()

	kind, in, out := [...]int{opPut, opGet, opSlab, opSlab}[choice], int64(len(body)), int64(len(want))
	switch {
	case err != nil:
	case method == http.MethodPut:
		if out, err = putInfo(got, gotStatus); err == nil {
			o.current[name] = v
		}
	case gotStatus != status:
		err = fmt.Errorf("GET %s: status %d, want %d: %s", url, gotStatus, status, got)
	default:
		err = checkEqual("GET "+url, got, want)
	}
	if err != nil {
		log.fail(err)
		return answered
	}
	log.add(kind, lat, in, out)
	return answered
}

// measure is a closed loop of nproc clients. Client c owns the names
// congruent to c mod nproc, so it always knows what each of its reads must
// return while its writes run beside the other clients' reads.
func (o *objectsInst) measure(d time.Duration, tr *tracer, log *opLog) {
	o.rounds++
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < o.e.nproc && c < objectNames; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(subSeed(o.e.seed, 400+100*o.rounds+c)))
			var answered time.Time
			for time.Now().Before(deadline) {
				if !answered.IsZero() {
					log.addLag(time.Since(answered))
				}
				answered = o.op(c, rng, o.reqs.Add(1), tr, log)
			}
		}()
	}
	wg.Wait()
	log.blockRate(log.all(), "operations")
}
