// Package engine exercises every way a spill store error can be
// discarded, plus the handled and waived forms.
package engine

import "repro/internal/spill"

func flush(s *spill.Store) {
	s.Write(nil)       // want `discarded error from spill\.Write`
	go s.Write(nil)    // want `discarded error from spill\.Write`
	defer s.Close()    // want `discarded error from spill\.Close`
	_ = s.Write(nil)   // want `discarded error from spill\.Write`
	buf, _ := s.Read() // want `discarded error from spill\.Read`
	_ = buf
	_, _ = spill.Open("dir") // want `discarded error from spill\.Open`

	// Bound errors and error-free calls are fine.
	if err := s.Write(nil); err != nil {
		panic(err)
	}
	st, err := spill.Open("dir")
	_, _ = st, err
	s.Len()

	//distqlint:allow uncheckederr: best-effort close on shutdown path
	s.Close()
}
