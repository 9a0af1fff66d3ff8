// Package engine exercises every way a spill/checkpoint error can be
// discarded, plus the handled and waived forms.
package engine

import (
	"repro/internal/checkpoint"
	"repro/internal/spill"
)

func flush(s *spill.Store) {
	s.Write(nil)       // want `discarded error from spill\.Write`
	go s.Write(nil)    // want `discarded error from spill\.Write`
	defer s.Close()    // want `discarded error from spill\.Close`
	_ = s.Write(nil)   // want `discarded error from spill\.Write`
	buf, _ := s.Read() // want `discarded error from spill\.Read`
	_ = buf
	_, _ = checkpoint.Save("dir") // want `discarded error from checkpoint\.Save`

	// Bound errors and error-free calls are fine.
	if err := s.Write(nil); err != nil {
		panic(err)
	}
	n, err := checkpoint.Save("dir")
	_, _ = n, err
	s.Len()

	//distqlint:allow uncheckederr: best-effort close on shutdown path
	s.Close()
}
