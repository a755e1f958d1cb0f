// Package forkjoin is the repository's single concurrency harness: a
// deterministic, bounded fork/join executor for embarrassingly parallel
// work such as independent sweep rows. The cluster does not fork: its
// router windows advance every replica inline (DESIGN.md, "Concurrency
// contract"), and its replicas stay isolated so a fork can return there
// without other changes.
//
// The determinism contract (DESIGN.md, "Concurrency contract") is that
// the OUTPUT of a fork/join region is a pure function of its inputs and
// never of the Go scheduler:
//
//   - results are index-addressed: task i writes only slot i, so the
//     join observes the same slice regardless of completion order;
//   - task bodies own their state: they may not read or write anything
//     another task can write (machine-checked by the bulletlint
//     replicaisolation and mergeorder analyzers);
//   - randomness inside a task comes from ForkSeed(seed, i), never from
//     shared or global sources (machine-checked by nodeterm).
//
// Under that contract Do(n, 1, fn) and Do(n, w, fn) are byte-identical
// for every w, which is what the ci.sh GOMAXPROCS=1-vs-4 equivalence
// gate pins. Every other package in the module is forbidden from using
// go statements, channels, select, or sync by the harnessonly analyzer;
// concurrency is obtained exclusively by calling this package.
package forkjoin

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the harness regardless of GOMAXPROCS: fork/join
// regions here are CPU-bound simulation advances, so parallelism past
// the core count only adds scheduling noise.
const maxWorkers = 64

// Workers returns the default parallelism: GOMAXPROCS capped at
// maxWorkers. By the isolation contract the value never affects results,
// only wall-clock time, so reading the runtime configuration here does
// not breach the determinism rules.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxWorkers {
		w = maxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TaskPanic is the panic value Do re-throws when a task body panics: the
// original value plus the task context (index, region size) and the
// panicking task's stack. When several tasks panic in one region the
// lowest task index deterministically wins.
type TaskPanic struct {
	Task  int
	N     int
	Value any
	Stack []byte
}

func (e *TaskPanic) Error() string {
	return fmt.Sprintf("forkjoin: task %d of %d panicked: %v\n%s", e.Task, e.N, e.Value, e.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As keep working through the harness boundary.
func (e *TaskPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Do runs fn(0), fn(1), ..., fn(n-1) with at most `workers` concurrent
// executions and blocks until every task has finished. workers <= 0
// selects the Workers() default; workers == 1 (or n == 1) runs every
// task inline on the calling goroutine in index order.
//
// Task bodies must satisfy the isolation contract in the package
// comment. If any task panics, Do panics with a *TaskPanic for the
// lowest-indexed panicking task after all other tasks have completed, in
// serial and parallel mode alike.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	var box panicBox
	if workers == 1 {
		for i := 0; i < n; i++ {
			box.runTask(i, n, fn)
		}
		box.rethrow()
		return
	}

	var (
		next int64 // next undispatched task index
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					return
				}
				box.runTask(i, n, fn)
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// panicBox keeps the lowest-task-index panic of one fork/join region.
// Each Do call owns its own box, so nested and concurrent regions never
// see each other's panics.
type panicBox struct {
	mu sync.Mutex
	tp *TaskPanic
}

// runTask executes one task, converting a panic into the deterministic
// TaskPanic record; the region runs its remaining tasks to completion
// (in serial and parallel mode alike) and the lowest index wins at the
// join.
func (b *panicBox) runTask(i, n int, fn func(int)) {
	defer func() {
		if v := recover(); v != nil {
			stack := make([]byte, 16<<10)
			stack = stack[:runtime.Stack(stack, false)]
			b.record(&TaskPanic{Task: i, N: n, Value: v, Stack: stack})
		}
	}()
	fn(i)
}

func (b *panicBox) record(tp *TaskPanic) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tp == nil || tp.Task < b.tp.Task {
		b.tp = tp
	}
}

func (b *panicBox) rethrow() {
	b.mu.Lock()
	tp := b.tp
	b.tp = nil
	b.mu.Unlock()
	if tp != nil {
		//lint:ignore panicmsg TaskPanic's Error carries the task index, region size, and original stack
		panic(tp)
	}
}

// Map runs fn over every index and returns the index-addressed result
// slice: out[i] is fn(i) regardless of completion order. This is the
// join shape the mergeorder analyzer steers callers toward — never
// append in completion order, never drain a results channel.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ForkSeed derives the sub-seed for task i of a region seeded with
// seed. It is a splitmix64-style mix: deterministic, stateless, and
// well-spread even for adjacent task indices, so per-task *rand.Rand
// streams are independent of both each other and the worker schedule.
func ForkSeed(seed int64, task int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(task+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Memo is a concurrency-safe memo table for deterministic computations:
// Get returns the cached value for a key, computing it at most once per
// process. It exists so packages outside the harness can share
// deterministic per-process caches (e.g. fitted estimator parameters)
// without owning sync primitives of their own, which the harnessonly
// analyzer forbids. Because compute must be a pure function of the key,
// which caller wins the race is unobservable in the results.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the memoized value for key, invoking compute under the
// table lock if the key has not been seen. compute must be deterministic
// in key; it must not recursively call Get on the same Memo.
func (c *Memo[K, V]) Get(key K, compute func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	if c.m == nil {
		c.m = map[K]V{}
	}
	v := compute()
	c.m[key] = v
	return v
}
