package cliutil

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeTier is a Tier that serves nothing: Serve blocks until Shutdown
// (or fails at once with serveErr), Shutdown records the drain budget it
// was given.
type fakeTier struct {
	serveErr, shutdownErr error
	stopped               chan struct{}
	budget                time.Duration
}

func (f *fakeTier) Serve(ln net.Listener) error {
	if f.serveErr != nil {
		return f.serveErr
	}
	<-f.stopped
	return http.ErrServerClosed
}

func (f *fakeTier) Shutdown(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		f.budget = time.Until(dl)
	}
	close(f.stopped)
	return f.shutdownErr
}

func testDaemon(t *testing.T, args ...string) *Daemon {
	t.Helper()
	fs := newFlagSet()
	d := RegisterDaemon(fs, "localhost:8080")
	if err := fs.Parse(append([]string{"-addr", "127.0.0.1:0"}, args...)); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRegisterDaemonDefaults(t *testing.T) {
	fs := newFlagSet()
	d := RegisterDaemon(fs, "localhost:9090")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	f := d.frame
	if d.Addr != "localhost:9090" || f.QueueDepth != 0 || f.MaxBodyBytes != 8<<20 ||
		f.QueueTimeout != 2*time.Second || d.DrainTimeout != 15*time.Second ||
		f.Workers < 1 || f.TraceSampleEvery != 0 || d.TraceFile != "" || d.AddrFile != "" || d.DebugAddr != "" {
		t.Errorf("defaults: %+v", d)
	}
	if d.Frame().TraceSink != nil {
		t.Error("a trace sink without -trace-file")
	}
}

// TestDaemonServesUntilCancelledThenDrains stands in for SIGTERM with a
// context: the listener is up on the address -addr-file names, the
// cancel drains the tier within -drain-timeout, and a clean drain is a
// clean return.
func TestDaemonServesUntilCancelledThenDrains(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	d := testDaemon(t, "-addr-file", addrFile, "-drain-timeout", "7s")
	tier := &fakeTier{stopped: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, "test", tier, "extra", 1) }()

	var bound []byte
	deadline := time.Now().Add(5 * time.Second)
	for len(bound) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no bound address in -addr-file")
		}
		time.Sleep(time.Millisecond)
		bound, _ = os.ReadFile(addrFile)
	}
	conn, err := net.Dial("tcp", string(bound))
	if err != nil {
		t.Fatalf("nothing listening on the -addr-file address %q: %v", bound, err)
	}
	conn.Close()
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) before its context ended", err)
	default:
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after a clean drain: %v", err)
	}
	if tier.budget <= 6*time.Second || tier.budget > 7*time.Second {
		t.Errorf("Shutdown was given %v to drain, want the 7s of -drain-timeout", tier.budget)
	}
}

func TestDaemonSurfacesFailures(t *testing.T) {
	boom := errors.New("boom")
	if err := testDaemon(t).Serve(context.Background(), "test", &fakeTier{serveErr: boom}); !errors.Is(err, boom) {
		t.Errorf("a failed Serve surfaced as %v", err)
	}
	if err := testDaemon(t).Serve(context.Background(), "test", &fakeTier{serveErr: http.ErrServerClosed}); err != nil {
		t.Errorf("a tier stopped from elsewhere surfaced as %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	late := &fakeTier{stopped: make(chan struct{}), shutdownErr: context.DeadlineExceeded}
	if err := testDaemon(t).Serve(ctx, "test", late); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("an incomplete drain surfaced as %v", err)
	}

	d := testDaemon(t)
	d.Addr = "not an address"
	if err := d.Serve(context.Background(), "test", &fakeTier{}); err == nil {
		t.Error("listening on a bad -addr succeeded")
	}
	d = testDaemon(t, "-addr-file", filepath.Join(t.TempDir(), "no", "such", "dir", "addr"))
	if err := d.Serve(context.Background(), "test", &fakeTier{}); err == nil {
		t.Error("an unwritable -addr-file went unreported")
	}
}
