package load

import (
	"context"
	"net/http/httptest"
	"time"

	"repro/internal/pool"
	"repro/internal/server"
)

// Stack is one in-process serving stack: a warm pool behind a server on
// a loopback listener, for tests that drive Run at a real server.
type Stack struct {
	URL    string
	Pool   *pool.Pool
	Server *server.Server
	ts     *httptest.Server
}

// Start boots a pool from pcfg and serves it with scfg (whose Pool it
// sets).
func Start(pcfg pool.Config, scfg server.Config) (*Stack, error) {
	p, err := pool.New(pcfg)
	if err != nil {
		return nil, err
	}
	scfg.Pool = p
	srv := server.New(scfg)
	ts := httptest.NewServer(srv)
	return &Stack{URL: ts.URL, Pool: p, Server: srv, ts: ts}, nil
}

// Close drains the server, waits for in-flight requests, stops the batch
// aggregator and closes the pool, reporting a worker that never came
// back.
func (s *Stack) Close() error {
	s.Server.Drain()
	s.ts.Close()
	s.Server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Pool.Close(ctx)
}
