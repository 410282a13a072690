package comm

import (
	"errors"
	"fmt"
	"net"
)

// Classified failure sentinels. Every failure the transports can observe
// in steady state wraps exactly one of these, so callers at any layer —
// the exchanger, the serving facade, the chaos harness — can switch on
// the fault class with errors.Is instead of parsing message strings.
//
// The transports surface failures by panicking with an error value
// wrapping one of the sentinels (the rank runners convert recovered
// panics back into errors with the chain intact, see PanicError). Hot
// paths keep their panic-based spelling so the fault-free steady state
// pays no error-return plumbing; the classification only materializes
// when something actually goes wrong.
var (
	// ErrPeerDown marks a failure caused by a dead or disconnected peer
	// rank: a closed/reset stream, a peer process that exited, or an
	// injected peer death.
	ErrPeerDown = errors.New("peer down")
	// ErrTimeout marks a bounded wait that expired: a receive deadline
	// (SetRecvTimeout) or a socket dial that timed out.
	ErrTimeout = errors.New("timeout")
	// ErrCorruptFrame marks a socket frame rejected by integrity
	// checking: CRC mismatch, unknown frame kind, out-of-range tag, or a
	// count exceeding the frame budget.
	ErrCorruptFrame = errors.New("corrupt frame")
	// ErrPeerClosed is the ErrPeerDown a receive reports once the peer's
	// endpoint has closed — its rank returned or failed, closing its
	// inboxes on the channel fabric or ending its streams at a frame
	// boundary on the socket fabric — and everything it sent has been
	// received. On the channel fabric a send to the closed rank reports it
	// too, at the latest once the rank's inbox is full. It is a
	// consequence of that rank's own outcome, so whoever collects a world's
	// failures reports the peer's error in its place where there is one.
	ErrPeerClosed = fmt.Errorf("endpoint closed: %w", ErrPeerDown)
	// ErrFault marks a failure manufactured by FaultTransport — injected
	// panics and injected peer deaths wrap it in addition to their
	// observable class, so tests can tell injected faults from real ones.
	ErrFault = errors.New("injected fault")
)

// PanicError converts a recovered panic value into an error. Error values
// pass through unchanged, preserving any classified sentinel in their
// chain; non-error panics are wrapped with their formatted value.
func PanicError(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", p)
}

// classifyIOError maps a low-level stream error onto the failure
// sentinels: deadline expiries become ErrTimeout, everything else that
// ends a connection (EOF, reset, closed socket) becomes ErrPeerDown.
func classifyIOError(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	// Anything else that ends a stream — EOF, reset, closed socket, a
	// broken pipe from a peer that exited — is a dead peer.
	return fmt.Errorf("%w: %v", ErrPeerDown, err)
}
