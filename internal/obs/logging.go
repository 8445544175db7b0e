package obs

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the fleet's structured logger: log/slog text lines on w,
// tagged with the component name ("tlsserve", "tlsworker", ...) plus any
// extra correlation attrs (campaign ID, worker name). Every CLI logs through
// this so fleet-wide greps can pivot on component=... campaign=... keys.
func NewLogger(w io.Writer, component string, attrs ...any) *slog.Logger {
	h := slog.NewTextHandler(w, nil)
	l := slog.New(h).With("component", component)
	if len(attrs) > 0 {
		l = l.With(attrs...)
	}
	return l
}

// Logf adapts a structured logger to the printf-style Logf seams threaded
// through cluster.Client, cluster.Worker and friends; nil yields a discard
// function so call sites need no guard.
func Logf(l *slog.Logger) func(format string, args ...any) {
	if l == nil {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}
