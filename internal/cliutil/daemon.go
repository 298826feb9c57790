package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"avr/internal/server"
)

// Daemon is the half avrd and avrrouter share: the ten flags both take,
// and listening, serving and draining under them.
type Daemon struct {
	Addr, AddrFile string
	DrainTimeout   time.Duration
	TraceFile      string
	DebugAddr      string
	frame          server.TierConfig // the five frame flags; Frame adds -trace-file's sink
}

// RegisterDaemon installs the shared daemon flags on fs; -addr defaults
// to defaultAddr.
func RegisterDaemon(fs *flag.FlagSet, defaultAddr string) *Daemon {
	d := &Daemon{}
	fs.StringVar(&d.Addr, "addr", defaultAddr, "listen address (use :0 for an ephemeral port)")
	fs.StringVar(&d.AddrFile, "addr-file", "", "write the bound address to this file (for scripts, with -addr :0)")
	fs.IntVar(&d.frame.Workers, "workers", runtime.GOMAXPROCS(0), "max concurrently served requests")
	fs.IntVar(&d.frame.QueueDepth, "queue", 0, "admission queue depth; 0 = 4×workers (beyond it requests shed with 429)")
	fs.Int64Var(&d.frame.MaxBodyBytes, "max-body", 8<<20, "max request body bytes (413 above)")
	fs.DurationVar(&d.frame.QueueTimeout, "queue-timeout", 2*time.Second, "max wait for a worker before 503")
	fs.DurationVar(&d.DrainTimeout, "drain-timeout", 15*time.Second, "max wait for in-flight requests on shutdown")
	fs.IntVar(&d.frame.TraceSampleEvery, "trace-sample", 0, "export one of every N request traces as JSONL; 0 = default (64), needs -trace-file")
	fs.StringVar(&d.TraceFile, "trace-file", "", "append sampled request-trace JSONL to this file (empty disables export)")
	RegisterDebug(fs, &d.DebugAddr)
	return d
}

// Frame is the tier settings the flags name, with -trace-file, when set,
// opened for appending for the life of the process as the trace sink.
func (d *Daemon) Frame() server.TierConfig {
	c := d.frame
	if d.TraceFile != "" {
		tf, err := os.OpenFile(d.TraceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			Fatal(err)
		}
		slog.Info("trace export on", "file", d.TraceFile, "sample_every", c.TraceSampleEvery)
		c.TraceSink = tf
	}
	return c
}

// Tier is what a Daemon serves: *server.Server or *cluster.Router.
type Tier interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Serve listens on -addr, leaves the bound address in -addr-file, and
// serves t until ctx ends; it then drains t within -drain-timeout. It
// returns nil after a clean drain (or a clean stop from elsewhere), and
// otherwise what went wrong. attrs ride on the "listening" log line.
func (d *Daemon) Serve(ctx context.Context, name string, t Tier, attrs ...any) error {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if d.AddrFile != "" {
		if err := os.WriteFile(d.AddrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	slog.Info(name+" listening", append([]any{"addr", bound, "workers", d.frame.Workers}, attrs...)...)

	errc := make(chan error, 1)
	go func() { errc <- t.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	slog.Info(name+" draining", "timeout", d.DrainTimeout.String())
	sdCtx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
	defer cancel()
	if err := t.Shutdown(sdCtx); err != nil {
		return fmt.Errorf("%s drain incomplete: %w", name, err)
	}
	slog.Info(name + " drained cleanly")
	return nil
}

// Run is Serve until SIGINT or SIGTERM — the first signal starts the
// drain and restores the default disposition, so a second one kills —
// and exits on failure.
func (d *Daemon) Run(name string, t Tier, attrs ...any) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := d.Serve(ctx, name, t, attrs...); err != nil {
		Fatal(err)
	}
}
