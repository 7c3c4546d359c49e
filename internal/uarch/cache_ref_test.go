package uarch

import (
	"fmt"
	"testing"

	"rhmd/internal/rng"
)

// refCache is the age-stamp true-LRU cache the recency-ordered Cache
// replaced: parallel tag/valid/age arrays and a per-access clock, the
// victim being an invalid way or else the way with the oldest stamp. It
// is kept as the reference the differential test compares against.
type refCache struct {
	ways     int
	sets     int
	lineBits uint
	setMask  uint64
	tags     []uint64
	valid    []bool
	age      []uint64
	clock    uint64
}

func newRefCache(sizeBytes, ways, lineSize int) *refCache {
	sets := sizeBytes / lineSize / ways
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	n := sets * ways
	return &refCache{ways: ways, sets: sets, lineBits: lineBits, setMask: uint64(sets - 1),
		tags: make([]uint64, n), valid: make([]bool, n), age: make([]uint64, n)}
}

func (c *refCache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	shift := 0
	for 1<<shift < c.sets {
		shift++
	}
	tag := line >> uint(shift)
	base := set * c.ways
	c.clock++

	victim, oldest := base, c.age[base]
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.age[i] = c.clock
			return true
		}
		if !c.valid[i] {
			victim, oldest = i, 0
		} else if c.age[i] < oldest {
			victim, oldest = i, c.age[i]
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.age[victim] = c.clock
	return false
}

func (c *refCache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.age[i] = 0
	}
	c.clock = 0
}

// lruStreams returns named address streams for a cache geometry, each
// mixing hits and misses: seeded random addresses over twice the
// capacity and over a pool of full 64-bit addresses, strided scans whose
// passes alternate between fitting the cache and overflowing it, and a
// set-conflict stream cycling and shuffling 2×ways lines of one set.
func lruStreams(size, ways, lineSize int) map[string][]uint64 {
	const n = 60_000
	r := rng.New(uint64(size*31 + ways*7 + lineSize))
	setStride := uint64(size / ways) // same set every stride
	out := map[string][]uint64{}

	pool := make([]uint64, 2*size/lineSize)
	for i := range pool {
		pool[i] = r.Uint64()
	}
	var rnd, wide []uint64
	for i := 0; i < n; i++ {
		rnd = append(rnd, 0x1000_0000+uint64(r.Intn(2*size)))
		wide = append(wide, pool[r.Intn(len(pool))])
	}
	out["random"], out["random-64bit"] = rnd, wide

	for _, stride := range []uint64{8, uint64(lineSize), setStride, setStride + uint64(lineSize)} {
		var s []uint64
		for pass := 0; len(s) < n; pass++ {
			region := uint64(size) * 3 / 4
			if pass%2 == 1 {
				region *= 2
			}
			for a := uint64(0); a < region && len(s) < n; a += stride {
				s = append(s, 0x2000_0000+a)
			}
		}
		out[fmt.Sprintf("stride-%d", stride)] = s
	}

	var conflict []uint64
	hot := 2 * ways
	for i := 0; i < n; i++ {
		k := i % hot
		if i%3 == 0 {
			k = r.Intn(hot)
		} else if i%5 == 0 {
			k = r.Intn(ways) // revisit within the associativity
		}
		conflict = append(conflict, 0x3000_0000+uint64(k)*setStride+uint64(r.Intn(lineSize)))
	}
	out["set-conflict"] = conflict
	return out
}

func TestCacheMatchesAgeStampReference(t *testing.T) {
	geometries := []struct {
		name                 string
		size, ways, lineSize int
	}{
		{"direct-mapped", 4 << 10, 1, 64},
		{"2-way", 8 << 10, 2, 32},
		{"8-way", 16 << 10, 8, 64},
		{"fully-associative", 8 * 64, 8, 64},
		{"default-L1", 32 << 10, 8, 64},
		{"default-L2", 256 << 10, 8, 64},
	}
	for _, g := range geometries {
		for name, stream := range lruStreams(g.size, g.ways, g.lineSize) {
			t.Run(g.name+"/"+name, func(t *testing.T) {
				got, want := MustCache(g.size, g.ways, g.lineSize), newRefCache(g.size, g.ways, g.lineSize)
				hits := 0
				for i, a := range stream {
					if i == len(stream)/2 {
						got.Reset()
						want.Reset()
					}
					h := got.Access(a)
					if w := want.Access(a); h != w {
						t.Fatalf("access %d (%#x): hit=%v, reference hit=%v", i, a, h, w)
					}
					if h {
						hits++
					}
				}
				if hits == 0 || hits == len(stream) {
					t.Fatalf("degenerate stream: %d/%d hits", hits, len(stream))
				}
			})
		}
	}
}
