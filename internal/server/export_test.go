package server

import "os"

// SetStateSync substitutes the state log's fsync seam, so tests can
// inject faults and delays; a commit already in flight keeps the
// function it started with.
func SetStateSync(s *Server, sync func(*os.File) error) {
	s.state.mu.Lock()
	s.state.sync = sync
	s.state.mu.Unlock()
}
