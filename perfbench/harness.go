package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/cloudsched/rasa/internal/server"
)

// harness is one RASA optimization service listening on a loopback
// port, plus the single closed-loop client that drives it.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts the service with cfg on an ephemeral loopback port.
func startServer(cfg server.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   callTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// callTimeout bounds one HTTP call; the longest is a converge pass
// long-poll, itself bounded by the 60 s job budget plus grace.
const callTimeout = 150 * time.Second

// close stops the listener, drains the service and waits for both.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.client.CloseIdleConnections()
	herr := h.hs.Shutdown(ctx)
	serr := h.srv.Shutdown(ctx)
	if err := <-h.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return errors.Join(herr, serr)
}

// call performs one request and returns the status and full body.
func (h *harness) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// expect performs a call and fails unless the status is want.
func (h *harness) expect(method, path string, body []byte, want int) ([]byte, error) {
	code, out, err := h.call(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.300s", method, path, code, want, out)
	}
	return out, nil
}
