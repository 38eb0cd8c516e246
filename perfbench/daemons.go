package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pressio/internal/core"
	"pressio/internal/daemon"
	"pressio/internal/sdrbench"
)

// probeSlab is the small payload of the HTTP and per-call probes: one
// 64x64 float32 nyx-density plane (16 KiB), with what /compress must answer.
type probeSlab struct {
	dims  []uint64
	raw   []byte
	comp  []byte
	query string
}

// newProbeSlab generates the slab from the seed and compresses it
// in-process; the decode is bound-checked, so the compressed bytes are a
// correct answer for the service.
func newProbeSlab(seed int64) (*probeSlab, *core.Compressor, error) {
	const side = 64
	raw := sdrbench.NYXDensity(1, side, side, subSeed(seed, 100)).Bytes()
	codec, err := newCodec(fieldCodecs[0])
	if err != nil {
		return nil, nil, err
	}
	in, err := core.NewMove(core.DTypeFloat32, raw, side, side)
	if err != nil {
		return nil, nil, err
	}
	comp, err := core.Compress(codec, in)
	if err != nil {
		return nil, nil, err
	}
	dec, err := core.Decompress(codec, comp, core.DTypeFloat32, side, side)
	if err != nil {
		return nil, nil, err
	}
	if err := checkBound(in, dec); err != nil {
		return nil, nil, fmt.Errorf("probe slab: %w", err)
	}
	return &probeSlab{
		dims:  []uint64{side, side},
		raw:   raw,
		comp:  comp.Bytes(),
		query: fmt.Sprintf("?dims=%d,%d&dtype=float32", side, side),
	}, codec, nil
}

// startDaemon starts an in-process pressiod on a loopback port.
func startDaemon(cfg daemon.Config) (*daemon.Daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	if cfg.Compressor == "" {
		cfg.Compressor = fieldCodecs[0].name
		cfg.Options = []string{core.KeyRel + "=1e-4"}
	}
	cfg.MemBudget = 256 << 20
	cfg.QueueDepth = 256
	cfg.ReqTimeout = 30 * time.Second
	cfg.DrainTimeout = 10 * time.Second
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	return d, nil
}

// fleet is a router in front of two shards.
type fleet struct {
	shards []*daemon.Daemon
	router *daemon.Daemon
}

func startFleet(nproc int) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(daemon.Config{Concurrency: nproc})
		if err != nil {
			_ = f.stop()
			return nil, err
		}
		f.shards = append(f.shards, d)
		addrs = append(addrs, d.Addr())
	}
	r, err := startDaemon(daemon.Config{Concurrency: 1, RouterPeers: strings.Join(addrs, ",")})
	if err != nil {
		_ = f.stop()
		return nil, err
	}
	f.router = r
	return f, nil
}

// stop drains the router first, then the shards.
func (f *fleet) stop() error {
	var errs []error
	if f.router != nil {
		errs = append(errs, f.router.Drain())
	}
	for _, d := range f.shards {
		errs = append(errs, d.Drain())
	}
	return errors.Join(errs...)
}

// httpClient talks to in-process daemons over at most conns connections per
// host and counts requests and shed responses in the run's env.
type httpClient struct {
	c *http.Client
	e *env
}

func newHTTPClient(e *env, conns int) *httpClient {
	return &httpClient{e: e, c: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// do sends one request and returns the response body and status.
func (h *httpClient) do(method, url string, body []byte, header map[string]string) ([]byte, int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	h.e.httpRequests.Add(1)
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Pressio-Error") == "shed" {
		h.e.httpShed.Add(1)
	}
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// compress posts the slab to base's /compress and requires a 200 with
// exactly the in-process compressed bytes.
func (h *httpClient) compress(base string, s *probeSlab) error {
	got, status, err := h.do(http.MethodPost, base+"/compress"+s.query, s.raw, nil)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("compress: status %d: %s", status, bytes.TrimSpace(got))
	}
	return checkEqual("compress", got, s.comp)
}
