package cliconf

import (
	"fmt"
	"io"
	"os"
	"time"
)

// progressEvery is the interval between plain progress lines when the
// stream is not a terminal.
const progressEvery = 2 * time.Second

// Progress writes campaign progress to a stream. On a terminal it
// keeps one status line, overwritten in place with \r; anywhere else
// (a log file, a pipe) it writes a plain line at most every couple of
// seconds plus the final one, so a log holds a few readable lines
// instead of hundreds of updates run together on one.
type Progress struct {
	w     io.Writer
	tty   bool
	every time.Duration
	last  time.Time
}

// NewProgress returns a Progress writing to f, overwriting in place
// only when f is a terminal.
func NewProgress(f *os.File) *Progress {
	fi, err := f.Stat()
	return newProgress(f, err == nil && fi.Mode()&os.ModeCharDevice != 0, progressEvery)
}

func newProgress(w io.Writer, tty bool, every time.Duration) *Progress {
	return &Progress{w: w, tty: tty, every: every}
}

// Printf reports one progress update (format carries no newline);
// final marks the update that completes the run, which a non-terminal
// stream always gets.
func (p *Progress) Printf(final bool, format string, args ...any) {
	if p.tty {
		fmt.Fprintf(p.w, "\r"+format, args...)
		return
	}
	if now := time.Now(); final || now.Sub(p.last) >= p.every {
		p.last = now
		fmt.Fprintf(p.w, format+"\n", args...)
	}
}

// End finishes the terminal status line; on any other stream every
// line is already complete.
func (p *Progress) End() {
	if p.tty {
		fmt.Fprintln(p.w)
	}
}
