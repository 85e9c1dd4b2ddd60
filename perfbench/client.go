package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

const (
	mediaJSON  = "application/json"
	mediaBatch = "application/x-triclust-batch"
)

// client issues the benchmark's requests against one daemon over at
// most conns connections, and counts every request it attempts and
// every one that fails (a transport error, or a status other than 2xx
// and 304).
type client struct {
	hc        *http.Client
	base      string
	attempted atomic.Int64
	failed    atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a completed request's status, ETag and body.
type reply struct {
	status int
	etag   string
	body   []byte
}

// do sends one request and reads the whole response. ctype and inm set
// Content-Type and If-None-Match when non-empty; a binary request also
// asks for a binary response.
func (c *client) do(ctx context.Context, method, path, ctype, inm string, body []byte) (reply, error) {
	c.attempted.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		c.failed.Add(1)
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
		req.Header.Set("Accept", ctype)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed.Add(1)
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: data}
	if err != nil {
		c.failed.Add(1)
		return r, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if r.status/100 != 2 && r.status != http.StatusNotModified {
		c.failed.Add(1)
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, bytes.TrimSpace(data))
	}
	return r, nil
}
