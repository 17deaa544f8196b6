// Package poll is the cooperative-cancellation rule every labeling loop
// shares. The long row loops — scan and relabel, which together dominate a
// labeling — check a context's done channel once every Rows rows and, once
// it has closed, stop and report the context's error. The polls are
// allocation-free, and a context that can never be canceled
// (context.Background().Done() is nil) costs one predicted branch per poll.
package poll

import "context"

// Rows is how many rows a cancelable loop processes between polls: 64 rows
// amortizes a poll to well under the cost of scanning one row.
const Rows = 64

// Done returns ctx's done channel; nil, which never closes, for a nil ctx.
func Done(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Stopped reports whether done has closed, without blocking. A nil done
// never stops.
func Stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Err returns ctx's error once its done channel has closed, defaulting to
// context.Canceled for a closed channel with no recorded error.
func Err(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}
