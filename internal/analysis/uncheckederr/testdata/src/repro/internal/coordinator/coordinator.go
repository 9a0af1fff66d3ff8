// Package coordinator exercises every way a Send error can be
// discarded, plus the handled, waived, and lookalike forms.
package coordinator

import (
	"repro/internal/partition"
	"repro/internal/proto"
	"repro/internal/transport"
)

// mailer is a lookalike: method named Send, different signature.
type mailer struct{}

func (mailer) Send(addr string, body int) error { return nil }

func drive(ep transport.Endpoint, ch *transport.Chan, m mailer, to partition.NodeID, msg proto.Message) {
	ep.Send(to, msg)       // want `discarded error from transport\.Endpoint`
	go ep.Send(to, msg)    // want `discarded error from transport\.Endpoint`
	defer ep.Send(to, msg) // want `discarded error from transport\.Endpoint`
	_ = ep.Send(to, msg)   // want `discarded error from transport\.Endpoint`
	ch.Send(to, msg)       // want `discarded error from \*transport\.Chan`

	// Bound errors, error-free endpoint methods, and signature
	// lookalikes are fine.
	if err := ep.Send(to, msg); err != nil {
		panic(err)
	}
	err := ch.Send(to, msg)
	_ = err
	ep.Node()
	m.Send("addr", 1)

	//distqlint:allow uncheckederr: best-effort notification on shutdown path
	ep.Send(to, msg)
}
