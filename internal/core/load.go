package core

import (
	"errors"
	"fmt"
	"sync"

	"columnsgd/internal/dataset"
	"columnsgd/internal/driver"
	"columnsgd/internal/partition"
)

// loadWindow is how many worksets may wait for one worker during a load.
// With one more in flight per worker, the block being split and the one
// being parsed ahead, it bounds what the master holds, whatever the file
// size.
const loadWindow = 4

// errLoadAborted stops the dispatch once a worker's load has failed; the
// worker's own error is what the load reports.
var errLoadAborted = errors.New("core: load aborted")

// dispatchLoads runs Algorithm 4's block queue as a pipeline. One
// goroutine calls next for block b+1 while this one splits block b, and
// each worker has a sender of its own: one MethodLoad in flight, worksets
// in block order, at most loadWindow waiting. Every workset goes to all
// replicas of its partition. A failed load is reported as the failure
// with the lowest block (then lowest worker); all goroutines have exited
// when dispatchLoads returns.
func (e *Engine) dispatchLoads(next func() (*dataset.Block, error), scheme partition.Scheme) (partition.DispatchStats, error) {
	type parsed struct {
		blk *dataset.Block
		err error
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	ahead := make(chan parsed) // unbuffered: parse exactly one block ahead
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			blk, err := next()
			select {
			case ahead <- parsed{blk, err}:
			case <-stop:
				return
			}
			if blk == nil || err != nil {
				return
			}
		}
	}()

	// failure is a worker's first failed load.
	type failure struct {
		block int
		err   error
	}
	queues := make([]chan *LoadArgs, e.cfg.Workers)
	failures := make([]*failure, e.cfg.Workers)
	failed := make(chan struct{})
	var failOnce sync.Once
	for w := range queues {
		queues[w] = make(chan *LoadArgs, loadWindow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A sender works through its whole queue unless its own worker
			// failed, so the lowest failing block is always attempted.
			for a := range queues[w] {
				if failures[w] != nil {
					continue
				}
				// Loads are not idempotent, so they never retry (Retry false).
				if err := e.drv.Call(w, driver.Call{Method: MethodLoad, Args: a}, nil, nil); err != nil {
					failures[w] = &failure{a.Workset.BlockID, fmt.Errorf("core: load block %d (partition %d) to worker %d: %w", a.Workset.BlockID, a.Partition, w, err)}
					failOnce.Do(func() { close(failed) })
				}
			}
		}()
	}

	_, stats, err := partition.DispatchStream(func() (*dataset.Block, error) {
		p := <-ahead
		return p.blk, p.err
	}, scheme, func(part int, ws *partition.Workset) error {
		a := &LoadArgs{Partition: part, Workset: ws}
		for _, w := range e.partOwners[part] {
			select {
			case queues[w] <- a:
			case <-failed:
				return errLoadAborted
			}
		}
		return nil
	})
	close(stop)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()

	var first *failure
	for _, f := range failures {
		if f != nil && (first == nil || f.block < first.block) {
			first = f
		}
	}
	if first != nil {
		return stats, first.err
	}
	return stats, err
}
