package routing

import (
	"fmt"
	"slices"
	"strings"
)

// Options parameterize scheme construction. The zero value selects every
// scheme's defaults.
type Options struct {
	// VirtualChannels is the channel-copy count v of the virtual-channel
	// scheme (Section 8.2); 0 selects the scheme default of 2. Other
	// schemes ignore it.
	VirtualChannels int
}

// Builder constructs a Router for one scheme over a precomputed State.
// It errors when the scheme does not support the state's topology.
type Builder func(s *State, opts Options) (Router, error)

// Info describes one scheme of the table.
type Info struct {
	// Name is the scheme's unique name, e.g. "dual-path".
	Name string
	// Description is a one-line summary for -list-schemes output.
	Description string
	// DeadlockFree reports whether the scheme is deadlock-free under
	// wormhole switching. The multicast service refuses schemes that are
	// not.
	DeadlockFree bool
	// Build constructs the scheme's router.
	Build Builder
}

// Lookup returns the scheme named name. An unknown name errors with the
// sorted list of valid names, so callers can surface a helpful message
// directly.
func Lookup(name string) (Info, error) {
	for _, info := range schemes {
		if info.Name == name {
			return info, nil
		}
	}
	return Info{}, fmt.Errorf("routing: unknown scheme %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// Names returns the sorted names of every scheme.
func Names() []string {
	names := make([]string, len(schemes))
	for i, info := range schemes {
		names[i] = info.Name
	}
	return names
}

// Schemes returns the Info of every scheme, sorted by name.
func Schemes() []Info { return slices.Clone(schemes) }

// New builds the named scheme's router over s with default options.
func New(name string, s *State) (Router, error) {
	return NewWithOptions(name, s, Options{})
}

// NewWithOptions builds the named scheme's router over s.
func NewWithOptions(name string, s *State, opts Options) (Router, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return info.Build(s, opts)
}
