package uarch

import (
	"fmt"
	"math/bits"
)

// Cache is a set-associative cache with true-LRU replacement. Only tag
// state is modelled (hit/miss behaviour); data movement is irrelevant to
// the event counts the detectors consume.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setBits  uint
	setMask  uint64
	// lines holds each set's ways at [set*ways, set*ways+ways) in
	// recency order, most recently used first. A way stores its tag+1,
	// so 0 marks an empty way; empty ways always trail the valid ones.
	lines []uint64
}

// NewCache builds a cache of the given total size in bytes with the given
// associativity and line size (both powers of two).
func NewCache(sizeBytes, ways, lineSize int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("uarch: non-positive cache geometry %d/%d/%d", sizeBytes, ways, lineSize)
	}
	if lineSize&(lineSize-1) != 0 || lineSize < 2 {
		// A line of at least two bytes keeps every tag below 2^63, so
		// the stored tag+1 never wraps to the empty marker.
		return nil, fmt.Errorf("uarch: line size %d not a power of two of at least 2", lineSize)
	}
	lines := sizeBytes / lineSize
	if lines == 0 || lines%ways != 0 {
		return nil, fmt.Errorf("uarch: size %d not divisible into %d-way sets of %dB lines", sizeBytes, ways, lineSize)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("uarch: set count %d not a power of two", sets)
	}
	return &Cache{
		ways:     ways,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros(uint(lineSize))),
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lines:    make([]uint64, lines),
	}, nil
}

// MustCache is NewCache that panics on configuration errors; for use with
// literal geometries.
func MustCache(sizeBytes, ways, lineSize int) *Cache {
	c, err := NewCache(sizeBytes, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up addr, filling the line on a miss, and reports whether
// it hit. A hit moves the line to the front of its set; a miss inserts
// it there and shifts the least recently used way (or an empty one) out.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	key := line>>c.setBits + 1
	base := int(line&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w, k := range set {
		if k == key {
			copy(set[1:w+1], set[:w])
			set[0] = key
			return true
		}
	}
	copy(set[1:], set)
	set[0] = key
	return false
}

// Reset invalidates every line.
func (c *Cache) Reset() { clear(c.lines) }

// Sets returns the number of sets (useful for tests).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Hierarchy is a two-level data-cache hierarchy: L2 is accessed only on
// L1 misses, mirroring an inclusive lookup path.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
}

// NewDefaultHierarchy returns a 32 KiB 8-way L1 with 64 B lines backed by
// a 256 KiB 8-way L2 — a desktop-class configuration of the AO486-era
// cores the paper extends.
func NewDefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1: MustCache(32<<10, 8, 64),
		L2: MustCache(256<<10, 8, 64),
	}
}

// Access performs a data access and reports (l1Miss, l2Miss).
func (h *Hierarchy) Access(addr uint64) (l1Miss, l2Miss bool) {
	if h.L1.Access(addr) {
		return false, false
	}
	return true, !h.L2.Access(addr)
}

// Reset clears both levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
}
