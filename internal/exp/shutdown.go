package exp

import (
	"context"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// ExitInterrupted is the campaign CLIs' exit code after a graceful shutdown
// (128 + SIGINT, the shell convention).
const ExitInterrupted = 130

// ExitPowerCut is the campaign CLIs' exit code when an injected storage
// fault plan's power cut fires (-io-chaos cut=N): the process dies at the
// exact moment the simulated machine loses power, leaving whatever the cut
// left on disk for tlsfsck and -resume to deal with.
const ExitPowerCut = 3

// Shutdown implements the campaign CLIs' two-stage signal protocol:
//
//	first SIGINT/SIGTERM  — cancel the context; in-flight simulations halt
//	                        at their next commit, the journal is flushed,
//	                        and the process exits with code 130;
//	second signal         — hard exit immediately (the user means it).
type Shutdown struct {
	ctx         context.Context
	cancel      context.CancelFunc
	interrupted atomic.Bool
	stop        func()
}

// NewShutdown installs the handler and returns the controller. Call Stop
// when the campaign finishes to restore default signal behavior.
func NewShutdown(parent context.Context) *Shutdown {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	s := &Shutdown{ctx: ctx, cancel: cancel}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	s.stop = func() {
		signal.Stop(ch)
		close(done)
	}
	go func() {
		select {
		case <-ch:
			s.interrupted.Store(true)
			cancel()
		case <-done:
			return
		}
		select {
		case <-ch:
			os.Exit(ExitInterrupted)
		case <-done:
		}
	}()
	return s
}

// Context is cancelled by the first signal.
func (s *Shutdown) Context() context.Context { return s.ctx }

// Interrupted reports whether a signal arrived.
func (s *Shutdown) Interrupted() bool { return s.interrupted.Load() }

// ExitCode maps a campaign's natural exit code through the shutdown state:
// an interrupted campaign exits 130 regardless of how far it got.
func (s *Shutdown) ExitCode(natural int) int {
	if s.Interrupted() {
		return ExitInterrupted
	}
	return natural
}

// Stop uninstalls the signal handler and releases the context.
func (s *Shutdown) Stop() {
	s.stop()
	s.cancel()
}
