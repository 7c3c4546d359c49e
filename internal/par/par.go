// Package par runs independent, indexed work items on every core.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i in [0, n) on up to runtime.GOMAXPROCS(0)
// goroutines and waits for all of them. f must only write state owned
// by its index. Each returns the error of the lowest i that failed —
// the error a sequential loop over i would have stopped at — after
// every call has returned.
func Each(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
