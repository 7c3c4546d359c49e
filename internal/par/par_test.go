package par

import (
	"errors"
	"fmt"
	"testing"
)

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		hits := make([]int, n)
		if err := Each(n, func(i int) error { hits[i]++; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

// TestEachReturnsLowestIndexError: whichever call fails first in time,
// the error is the one a sequential loop would have returned.
func TestEachReturnsLowestIndexError(t *testing.T) {
	want := errors.New("index 3")
	err := Each(50, func(i int) error {
		switch {
		case i == 3:
			return want
		case i > 3 && i%5 == 0:
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
}
