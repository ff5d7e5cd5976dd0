package hierarchy

import (
	"fmt"
	"sort"
	"sync"
)

// Server is a category server (§3.5): it manages data about categorization
// hierarchies and can delegate portions of a namespace to other category
// servers, much like DNS sub-domain delegation. Server is safe for
// concurrent use.
type Server struct {
	mu          sync.RWMutex
	hierarchies map[string]*Hierarchy
	// delegations maps dimension name -> sorted list of (path prefix,
	// delegate address). The most specific matching delegation wins.
	delegations map[string][]Delegation
}

// Delegation records that queries under Prefix of one dimension are managed
// by the category server at Addr.
type Delegation struct {
	Prefix Path
	Addr   string
}

// NewServer creates a category server managing the given hierarchies.
func NewServer(hs ...*Hierarchy) *Server {
	s := &Server{
		hierarchies: map[string]*Hierarchy{},
		delegations: map[string][]Delegation{},
	}
	for _, h := range hs {
		s.hierarchies[h.Name()] = h
	}
	return s
}

// Hierarchy returns the named hierarchy, or nil.
func (s *Server) Hierarchy(name string) *Hierarchy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hierarchies[name]
}

// Dimensions lists the dimension names the server manages, sorted.
func (s *Server) Dimensions() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.hierarchies))
	for n := range s.hierarchies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delegate records that the subtree under prefix of the named dimension is
// managed by the category server at addr.
func (s *Server) Delegate(dimension string, prefix Path, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hierarchies[dimension]
	if !ok {
		return fmt.Errorf("hierarchy: delegate: unknown dimension %q", dimension)
	}
	if !h.Contains(prefix) {
		return fmt.Errorf("hierarchy: delegate: unknown category %q in %s", prefix, dimension)
	}
	s.delegations[dimension] = append(s.delegations[dimension], Delegation{Prefix: prefix, Addr: addr})
	// Keep most specific first so Resolve finds the best match by scanning.
	sort.Slice(s.delegations[dimension], func(i, j int) bool {
		di, dj := s.delegations[dimension][i], s.delegations[dimension][j]
		if di.Prefix.Depth() != dj.Prefix.Depth() {
			return di.Prefix.Depth() > dj.Prefix.Depth()
		}
		return di.Prefix.Compare(dj.Prefix) < 0
	})
	return nil
}

// Resolve reports which category server is responsible for the given
// category: the address of the most specific delegation covering it, or ""
// when this server is itself responsible.
func (s *Server) Resolve(dimension string, p Path) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.delegations[dimension] {
		if d.Prefix.Covers(p) {
			return d.Addr
		}
	}
	return ""
}

// Subcategories answers the category-server query "what are the immediate
// subcategories of p?" for the named dimension.
func (s *Server) Subcategories(dimension string, p Path) ([]Path, error) {
	s.mu.RLock()
	h, ok := s.hierarchies[dimension]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hierarchy: unknown dimension %q", dimension)
	}
	return h.Children(p)
}

// Validate checks that a category exists in the named dimension; when it
// does not, it returns the deepest known ancestor so callers can degrade
// gracefully (loss of precision, no loss of recall).
func (s *Server) Validate(dimension string, p Path) (exact bool, nearest Path, err error) {
	s.mu.RLock()
	h, ok := s.hierarchies[dimension]
	s.mu.RUnlock()
	if !ok {
		return false, Path{}, fmt.Errorf("hierarchy: unknown dimension %q", dimension)
	}
	if h.Contains(p) {
		return true, p, nil
	}
	return false, h.Generalize(p), nil
}
