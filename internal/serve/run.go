package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Connection bounds, so no client holds a connection or the drain open
// indefinitely: headers must arrive within readHeaderTimeout, the whole
// request (a dictionary reload body included) within readTimeout, a
// keep-alive connection idles out after idleTimeout, and Close waits
// drainTimeout for in-flight handlers before it cuts what is still open.
// A connection that has sent no request yet holds no accepted work, so
// Close cuts it at once rather than wait out net/http's own grace for such
// connections, which equals drainTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 5 * time.Second
)

// Handle is a running HTTP listener bound to a Server. It exists so that
// callers outside the goroutine-allowlisted packages (cmd/extdict-serve,
// the CI smoke test) never write a `go` statement themselves: Start owns
// the accept-loop goroutine, Close joins it.
type Handle struct {
	srv  *Server
	http *http.Server
	ln   net.Listener
	done chan error

	mu       sync.Mutex
	fresh    map[net.Conn]struct{} // connections still in http.StateNew
	draining bool                  // Close has begun
}

// Start listens on addr (":8347", "127.0.0.1:0", …) and serves srv's mux
// from a background accept loop. The caller owns both lifetimes and ends
// them with Close.
func Start(addr string, srv *Server) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &Handle{
		srv: srv,
		http: &http.Server{
			Handler:           srv.Mux(),
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln:    ln,
		done:  make(chan error, 1),
		fresh: make(map[net.Conn]struct{}),
	}
	h.http.ConnState = h.connState
	go func() {
		h.done <- h.http.Serve(h.ln)
	}()
	return h, nil
}

// Addr returns the bound listen address (useful with port 0).
func (h *Handle) Addr() string { return h.ln.Addr().String() }

// connState tracks the connections that have not sent a request yet. Once
// Close has begun, a connection arriving in that state is closed at once.
func (h *Handle) connState(c net.Conn, st http.ConnState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case st == http.StateNew && h.draining:
		_ = c.Close() // it carries no request; the client sees a closed socket
	case st == http.StateNew:
		h.fresh[c] = struct{}{}
	default:
		delete(h.fresh, c)
	}
}

// Close shuts the service down in drain order: close the connections that
// have sent no request, stop accepting new connections and wait out
// in-flight handlers — for at most drainTimeout, then cut the connections
// still open and report it — then drain the batchers, so every request
// accepted before Close is coded, and join the accept loop.
func (h *Handle) Close() error {
	h.mu.Lock()
	h.draining = true
	for c := range h.fresh {
		_ = c.Close() // it carries no request; the client sees a closed socket
	}
	clear(h.fresh)
	h.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := h.http.Shutdown(ctx)
	if err != nil {
		err = errors.Join(fmt.Errorf("serve: connections still open after the %v drain deadline were closed: %w", drainTimeout, err), h.http.Close())
	}
	h.srv.Close()
	serveErr := <-h.done
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}
