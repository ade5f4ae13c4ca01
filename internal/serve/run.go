package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Connection bounds, so no client holds a connection or the drain open
// indefinitely: headers must arrive within readHeaderTimeout, the whole
// request (a dictionary reload body included) within readTimeout, a
// keep-alive connection idles out after idleTimeout, and Close waits
// drainTimeout for in-flight handlers before it cuts what is still open.
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
		ln:   ln,
		done: make(chan error, 1),
	}
	go func() {
		h.done <- h.http.Serve(h.ln)
	}()
	return h, nil
}

// Addr returns the bound listen address (useful with port 0).
func (h *Handle) Addr() string { return h.ln.Addr().String() }

// Close shuts the service down in drain order: stop accepting new
// connections and wait out in-flight handlers — for at most drainTimeout,
// then cut the connections still open and report it — then drain the
// batchers, so every request accepted before Close is coded, and join the
// accept loop.
func (h *Handle) Close() error {
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
