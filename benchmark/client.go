package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is one keep-alive HTTP/1.1 connection to the daemon. It writes
// requests itself and parses responses with the standard library's codec
// (http.ReadResponse), without http.Transport's per-request goroutine
// hand-offs, so that the load generator takes as little as it can of the
// CPUs it shares with the daemon.
type client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	body bytes.Buffer
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close() // only read from; nothing to flush
		c.conn = nil
	}
}

// do sends one request and returns the status and the body, which stays
// valid until the next call. Every response the benchmark reads is JSON,
// so every request asks for it (/metrics answers in text otherwise).
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		c.close()
		return 0, nil, err
	}
	w := c.w
	w.WriteString(method)
	w.WriteByte(' ')
	w.WriteString(path)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	w.WriteString(c.addr)
	w.WriteString("\r\nAccept: application/json\r\n")
	if body != nil {
		w.WriteString("Content-Type: application/json\r\nContent-Length: ")
		w.WriteString(strconv.Itoa(len(body)))
		w.WriteString("\r\n")
	}
	w.WriteString("\r\n")
	w.Write(body)
	if err := w.Flush(); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body.Bytes(), err
}

func (c *client) get(path string) ([]byte, error) {
	status, b, err := c.do(http.MethodGet, path, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return b, err
}

// exec sends o and records its outcome. Only the round trip is timed.
func (c *client) exec(o *op, cluster string) {
	path, body := o.path(cluster), o.body()
	o.start = time.Now()
	status, resp, err := c.do(http.MethodPost, path, body)
	o.lat = time.Since(o.start)
	if err != nil || status != http.StatusOK {
		o.failed = true
		return
	}
	o.hash = hashBytes(resp)
	if o.remove {
		return
	}
	var v struct {
		Accepted bool   `json:"accepted"`
		Handle   uint64 `json:"handle"`
	}
	if json.Unmarshal(resp, &v) != nil {
		o.failed = true
		return
	}
	o.accepted, o.newHandle = v.Accepted, v.Handle
}

// healthz times one GET /healthz round trip on the client's connection.
func (c *client) healthz() (time.Duration, error) {
	t0 := time.Now()
	_, err := c.get("/healthz")
	return time.Since(t0), err
}

// waitReady polls /readyz until the daemon has finished recovery.
func (c *client) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, err := c.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("admitd not ready within 60s: status %d, %v", status, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// canonDigest fetches GET /v1/canon and returns the SHA-256 of the decoded
// canonical state.
func (c *client) canonDigest() (string, error) {
	b, err := c.get("/v1/canon")
	if err != nil {
		return "", err
	}
	var v struct {
		Canon string `json:"canon"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return "", fmt.Errorf("decode /v1/canon: %w", err)
	}
	raw, err := hex.DecodeString(v.Canon)
	if err != nil {
		return "", fmt.Errorf("decode /v1/canon hex: %w", err)
	}
	return digest(raw), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// metricsSnapshot is the part of admitd's JSON /metrics document the
// benchmark reads: counter and gauge values by name, and histogram sums
// and counts.
type metricsSnapshot struct {
	values map[string]int64
	hists  map[string][2]int64 // name → {count, sum}
}

func (m metricsSnapshot) delta(before metricsSnapshot, name string) int64 {
	return m.values[name] - before.values[name]
}

// scrapeMetrics fetches /metrics in its JSON form.
func (c *client) scrapeMetrics() (metricsSnapshot, error) {
	b, err := c.get("/metrics")
	if err != nil {
		return metricsSnapshot{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	var doc struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
			Sum   int64  `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return metricsSnapshot{}, fmt.Errorf("decode /metrics: %w", err)
	}
	m := metricsSnapshot{values: map[string]int64{}, hists: map[string][2]int64{}}
	for _, c := range doc.Counters {
		m.values[c.Name] = c.Value
	}
	for _, g := range doc.Gauges {
		m.values[g.Name] = g.Value
	}
	for _, h := range doc.Histograms {
		m.hists[h.Name] = [2]int64{h.Count, h.Sum}
	}
	return m, nil
}
