// Package spill is a miniature store API whose error returns are
// load-bearing for the exact-once cleanup guarantee.
package spill

type Store struct{}

func Open(dir string) (*Store, error) { return &Store{}, nil }

func (s *Store) Write(b []byte) error  { return nil }
func (s *Store) Read() ([]byte, error) { return nil, nil }
func (s *Store) Close() error          { return nil }

// Len has no error result; statement-position calls are fine.
func (s *Store) Len() int { return 0 }
