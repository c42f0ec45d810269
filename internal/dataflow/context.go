// Package dataflow implements an in-process partitioned dataflow engine
// — the substitute this reproduction uses for Apache Spark's RDDs, the
// substrate the paper's Section 4 implementation runs on.
//
// A Dataset[T] is a horizontally partitioned collection. Transformations
// are the parallelizable second-order functions of the paper's
// algorithms (Algorithms 1–6: map, flatMap, filter, groupBy,
// reduceByKey, join, sort, fold), executing user-defined first-order
// functions on each partition in parallel on a worker pool. Wide transformations
// perform an explicit hash shuffle between partitions; the engine counts
// tasks and shuffled records so that experiments can report work
// alongside wall-clock time, the way Spark's UI does.
//
// The engine is deliberately eager (each transformation materialises its
// output) — the paper's operators are one- or two-pass pipelines where
// lazy stage fusion would not change the asymptotics, and eagerness
// keeps memory accounting observable.
package dataflow

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Context owns the worker pool and execution metrics shared by all
// datasets derived from it. A Context is safe for concurrent use.
//
// Thread-safety contract for metrics: every counter update happens
// under metricsMu.RLock (the individual counters are atomics, so
// updates stay concurrent with each other), while Metrics and
// ResetMetrics take metricsMu.Lock. A snapshot therefore never observes
// a torn update group (e.g. a job's task count without its shuffle
// volume), and a reset cannot interleave with one.
type Context struct {
	parallelism int
	defaultPart int
	seed        maphash.Seed

	// std is the cancellation scope every job dispatched through this
	// context observes (Spark's "kill job" signal). It is swappable at
	// runtime via Bind so that a caller can attach a deadline to a
	// context whose graphs were already built. nil means Background.
	std    atomic.Pointer[context.Context]
	cancel context.CancelFunc // set by WithTimeout; released by Close

	retry     RetryPolicy
	faultHook FaultHook

	metricsMu         sync.RWMutex
	jobs              atomic.Int64
	tasks             atomic.Int64
	shuffled          atomic.Int64
	shuffles          atomic.Int64
	shufflePartitions atomic.Int64
	busy              atomic.Int64
	busyMax           atomic.Int64
	taskRetries       atomic.Int64
	taskFailures      atomic.Int64
	tasksCancelled    atomic.Int64

	// Cached handles into the process-wide obs registry, which
	// aggregates engine work across all contexts (the per-experiment
	// view that internal/bench exports).
	obsJobs      *obs.Counter
	obsTasks     *obs.Counter
	obsShuffled  *obs.Counter
	obsShuffles  *obs.Counter
	obsParts     *obs.Counter
	obsBusy      *obs.Gauge
	obsBusyMax   *obs.Gauge
	obsRetries   *obs.Counter
	obsFailures  *obs.Counter
	obsCancelled *obs.Counter
}

// RetryPolicy bounds re-execution of tasks that fail with a
// Transient-marked error. Non-transient failures (and panics) are never
// retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per task
	// (1 = no retry). Values < 1 mean 1.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it, with full jitter in [d/2, d]. <= 0 selects
	// 200µs.
	BaseBackoff time.Duration
	// MaxBackoff caps the (pre-jitter) delay. <= 0 selects 50ms.
	MaxBackoff time.Duration
}

// FaultHook, when installed via WithFaultHook, is invoked at the start
// of every task attempt with the site name ("dataflow.<stage>") and the
// partition index. It exists for fault injection (internal/faults): a
// hook may panic (optionally with a Transient error to exercise retry)
// or sleep to inject delays. Hooks must be safe for concurrent use.
type FaultHook func(site string, partition int)

// Option configures a Context.
type Option func(*Context)

// WithParallelism bounds the number of concurrently executing partition
// tasks (the "cluster cores"). Values < 1 select runtime.NumCPU().
func WithParallelism(n int) Option {
	return func(c *Context) {
		if n >= 1 {
			c.parallelism = n
		}
	}
}

// WithDefaultPartitions sets the partition count used when a caller
// passes numPartitions <= 0. Values < 1 are ignored.
func WithDefaultPartitions(n int) Option {
	return func(c *Context) {
		if n >= 1 {
			c.defaultPart = n
		}
	}
}

// WithContext binds a standard context as the cancellation scope for
// all jobs. When combined with WithTimeout, list WithContext first so
// the deadline derives from it.
func WithContext(ctx context.Context) Option {
	return func(c *Context) { c.Bind(ctx) }
}

// WithTimeout derives the cancellation scope from the currently bound
// context with the given deadline. The cancel function is retained on
// the Context and released by Close. d <= 0 is ignored.
func WithTimeout(d time.Duration) Option {
	return func(c *Context) {
		if d <= 0 {
			return
		}
		std, cancel := context.WithTimeout(c.Std(), d)
		c.cancel = cancel
		c.Bind(std)
	}
}

// WithRetry sets the task retry policy.
func WithRetry(p RetryPolicy) Option {
	return func(c *Context) { c.retry = p }
}

// WithFaultHook installs a fault-injection hook invoked at the start of
// every task attempt. Intended for tests (internal/faults); nil removes
// the hook.
func WithFaultHook(h FaultHook) Option {
	return func(c *Context) { c.faultHook = h }
}

// NewContext returns a Context with the given options. By default both
// parallelism and the default partition count equal runtime.NumCPU().
func NewContext(opts ...Option) *Context {
	c := &Context{
		parallelism: runtime.NumCPU(),
		defaultPart: runtime.NumCPU(),
		seed:        maphash.MakeSeed(),

		obsJobs:     obs.Default().Counter("dataflow.jobs"),
		obsTasks:    obs.Default().Counter("dataflow.tasks"),
		obsShuffled: obs.Default().Counter("dataflow.shuffled_records"),
		obsShuffles: obs.Default().Counter("dataflow.shuffles"),
		obsParts:    obs.Default().Counter("dataflow.shuffle_partitions"),
		obsBusy:     obs.Default().Gauge("dataflow.workers_busy"),
		obsBusyMax:  obs.Default().Gauge("dataflow.workers_busy_max"),

		obsRetries:   obs.Default().Counter("dataflow.task_retries"),
		obsFailures:  obs.Default().Counter("dataflow.task_failures"),
		obsCancelled: obs.Default().Counter("dataflow.tasks_cancelled"),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Parallelism returns the worker-pool size.
func (c *Context) Parallelism() int { return c.parallelism }

// DefaultPartitions returns the default partition count.
func (c *Context) DefaultPartitions() int { return c.defaultPart }

// Std returns the bound standard context (Background if none was
// bound).
func (c *Context) Std() context.Context {
	if p := c.std.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// Bind replaces the cancellation scope observed by subsequent jobs.
// Datasets and graphs capture their *dataflow.Context at construction,
// so Bind is how a caller attaches a deadline to work on structures
// built earlier. nil rebinds Background.
func (c *Context) Bind(ctx context.Context) {
	if ctx == nil {
		c.std.Store(nil)
		return
	}
	c.std.Store(&ctx)
}

// Err reports the cancellation state of the bound context: nil while
// live, context.Canceled or context.DeadlineExceeded once cancelled.
func (c *Context) Err() error { return c.Std().Err() }

// Close releases the timer resources of a WithTimeout-derived scope.
// It cancels the bound context; jobs dispatched after Close fail with
// context.Canceled.
func (c *Context) Close() {
	if c.cancel != nil {
		c.cancel()
	}
}

// Run executes fn as one guarded job group: any *JobError panic raised
// by a transformation inside fn is recovered and returned as an error,
// and a context that is already cancelled is reported before fn starts.
// Panics that did not originate from the engine's failure path
// propagate unchanged. This is the boundary the error-returning zoom
// entry points in internal/core are built on.
func (c *Context) Run(fn func() error) (err error) {
	if e := c.Err(); e != nil {
		return &JobError{Stage: "run", Cancel: e}
	}
	defer func() {
		if r := recover(); r != nil {
			je := AsJobError(r)
			if je == nil {
				panic(r)
			}
			err = je
		}
	}()
	return fn()
}

// Metrics is a snapshot of the engine's execution counters.
type Metrics struct {
	// Jobs is the number of parallel jobs (runTasks invocations)
	// executed.
	Jobs int64
	// Tasks is the number of partition tasks executed.
	Tasks int64
	// ShuffledRecords is the number of records moved across partitions
	// by wide transformations.
	ShuffledRecords int64
	// Shuffles is the number of wide transformations executed.
	Shuffles int64
	// ShufflePartitions is the total number of destination partitions
	// across all shuffles.
	ShufflePartitions int64
	// MaxWorkersBusy is the high-water mark of concurrently executing
	// tasks (worker-pool occupancy).
	MaxWorkersBusy int64
	// TaskRetries is the number of task re-executions triggered by
	// transient failures.
	TaskRetries int64
	// TaskFailures is the number of tasks that exhausted their attempts
	// and failed.
	TaskFailures int64
	// TasksCancelled is the number of tasks skipped because their job's
	// context was cancelled before they ran.
	TasksCancelled int64
}

// Metrics returns a consistent snapshot of the context's counters: it
// excludes concurrent updaters for the duration of the read (see the
// Context thread-safety contract), so the returned values always
// belong to a set of fully recorded update groups.
func (c *Context) Metrics() Metrics {
	c.metricsMu.Lock()
	defer c.metricsMu.Unlock()
	return Metrics{
		Jobs:              c.jobs.Load(),
		Tasks:             c.tasks.Load(),
		ShuffledRecords:   c.shuffled.Load(),
		Shuffles:          c.shuffles.Load(),
		ShufflePartitions: c.shufflePartitions.Load(),
		MaxWorkersBusy:    c.busyMax.Load(),
		TaskRetries:       c.taskRetries.Load(),
		TaskFailures:      c.taskFailures.Load(),
		TasksCancelled:    c.tasksCancelled.Load(),
	}
}

// ResetMetrics zeroes the context's counters. Like Metrics it takes
// the writer side of the metrics lock, so a reset never interleaves
// with a counter update group: after ResetMetrics returns, a
// subsequent Metrics call reflects only jobs recorded after the reset.
func (c *Context) ResetMetrics() {
	c.metricsMu.Lock()
	defer c.metricsMu.Unlock()
	c.jobs.Store(0)
	c.tasks.Store(0)
	c.shuffled.Store(0)
	c.shuffles.Store(0)
	c.shufflePartitions.Store(0)
	c.busyMax.Store(c.busy.Load())
	c.taskRetries.Store(0)
	c.taskFailures.Store(0)
	c.tasksCancelled.Store(0)
}

func (m Metrics) String() string {
	s := fmt.Sprintf("jobs=%d tasks=%d shuffles=%d shuffledRecords=%d shufflePartitions=%d maxWorkersBusy=%d",
		m.Jobs, m.Tasks, m.Shuffles, m.ShuffledRecords, m.ShufflePartitions, m.MaxWorkersBusy)
	if m.TaskRetries != 0 || m.TaskFailures != 0 || m.TasksCancelled != 0 {
		s += fmt.Sprintf(" taskRetries=%d taskFailures=%d tasksCancelled=%d",
			m.TaskRetries, m.TaskFailures, m.TasksCancelled)
	}
	return s
}

// countShuffle records one wide transformation that moved records
// records into partitions destination partitions.
func (c *Context) countShuffle(records int64, partitions int) {
	c.metricsMu.RLock()
	c.shuffles.Add(1)
	c.shuffled.Add(records)
	c.shufflePartitions.Add(int64(partitions))
	c.metricsMu.RUnlock()
	c.obsShuffles.Add(1)
	c.obsShuffled.Add(records)
	c.obsParts.Add(int64(partitions))
}

// taskStarted/taskDone bracket one executing task, maintaining the
// worker-occupancy gauge and its high-water mark.
func (c *Context) taskStarted() {
	cur := c.busy.Add(1)
	raiseMax(&c.busyMax, cur)
	c.obsBusy.Add(1)
	c.obsBusyMax.Max(cur)
}

// raiseMax lifts v to n if n exceeds it (atomic high-water mark).
func raiseMax(v *atomic.Int64, n int64) {
	for {
		cur := v.Load()
		if n <= cur || v.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (c *Context) taskDone() {
	c.busy.Add(-1)
	c.obsBusy.Add(-1)
}

// noteRetries/noteFailures/noteCancelled record fault-tolerance events
// under the metrics contract (update group excluded from snapshots).
func (c *Context) noteRetries(n int64) {
	if n == 0 {
		return
	}
	c.metricsMu.RLock()
	c.taskRetries.Add(n)
	c.metricsMu.RUnlock()
	c.obsRetries.Add(n)
}

func (c *Context) noteFailures(n int64) {
	if n == 0 {
		return
	}
	c.metricsMu.RLock()
	c.taskFailures.Add(n)
	c.metricsMu.RUnlock()
	c.obsFailures.Add(n)
}

func (c *Context) noteCancelled(n int64) {
	if n == 0 {
		return
	}
	c.metricsMu.RLock()
	c.tasksCancelled.Add(n)
	c.metricsMu.RUnlock()
	c.obsCancelled.Add(n)
}

// tryTask executes one attempt of a task, bracketed by the
// worker-occupancy gauge (taskDone runs even on panic, so the busy
// gauge always balances). A recovered panic is returned as an error
// with the stack of the failing attempt.
func (c *Context) tryTask(stage string, part int, fn func(int)) (err error, stack []byte) {
	c.taskStarted()
	defer func() {
		if r := recover(); r != nil {
			err = panicToError(r)
			stack = debug.Stack()
		}
		c.taskDone()
	}()
	if h := c.faultHook; h != nil {
		h("dataflow."+stage, part)
	}
	fn(part)
	return nil, nil
}

// sleepBackoff waits out the jittered exponential backoff before retry
// attempt (1-based). It returns false if the context was cancelled
// during the wait.
func sleepBackoff(std context.Context, pol RetryPolicy, attempt int) bool {
	base := pol.BaseBackoff
	if base <= 0 {
		base = 200 * time.Microsecond
	}
	ceil := pol.MaxBackoff
	if ceil <= 0 {
		ceil = 50 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	// Full jitter over [d/2, d] decorrelates retries across partitions.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-std.Done():
		return false
	}
}

// execTask runs one task to completion under the retry policy,
// returning nil on success or the *TaskError of the final attempt.
func (c *Context) execTask(std context.Context, stage string, part int, fn func(int)) *TaskError {
	maxAttempts := c.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		err, stack := c.tryTask(stage, part, fn)
		if err == nil {
			return nil
		}
		if attempt < maxAttempts && IsTransient(err) && std.Err() == nil {
			c.noteRetries(1)
			if sleepBackoff(std, c.retry, attempt) {
				continue
			}
		}
		c.noteFailures(1)
		return &TaskError{Stage: stage, Partition: part, Attempts: attempt, Err: err, Stack: stack}
	}
}

// finishJob aggregates a job's outcome. On any failure or cancellation
// it panics with a *JobError carrying every task failure (sorted by
// partition) — Context.Run and the core zoom guards convert this back
// into an ordinary error at the job-group boundary.
func (c *Context) finishJob(stage string, failed []*TaskError, cancelErr error, skipped int) {
	c.noteCancelled(int64(skipped))
	if len(failed) == 0 && cancelErr == nil {
		return
	}
	slices.SortFunc(failed, func(a, b *TaskError) int { return cmp.Compare(a.Partition, b.Partition) })
	panic(&JobError{Stage: stage, Tasks: failed, Cancel: cancelErr, TasksSkipped: skipped})
}

// runTasks executes fn(i) for i in [0, n) on the worker pool and blocks
// until all complete: min(parallelism, n) workers — the caller and
// goroutines started for this job — claim partition numbers from one
// counter. Cancellation of the bound context is checked before each
// claim; failed tasks are retried per the retry policy; if any task
// still fails, or tasks were skipped due to cancellation, runTasks
// panics with a *JobError aggregating every failure (recovered by
// Context.Run).
func (c *Context) runTasks(stage string, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	std := c.Std()
	if err := std.Err(); err != nil {
		c.finishJob(stage, nil, err, n)
	}
	c.metricsMu.RLock()
	c.jobs.Add(1)
	c.tasks.Add(int64(n))
	c.metricsMu.RUnlock()
	c.obsJobs.Add(1)
	c.obsTasks.Add(int64(n))
	if n == 1 || c.parallelism == 1 {
		var failed []*TaskError
		for i := 0; i < n; i++ {
			if err := std.Err(); err != nil {
				c.finishJob(stage, failed, err, n-i)
			}
			if te := c.execTask(std, stage, i, fn); te != nil {
				failed = append(failed, te)
			}
		}
		c.finishJob(stage, failed, nil, 0)
		return
	}
	j := &job{c: c, std: std, stage: stage, n: n, fn: fn}
	j.wg.Add(min(c.parallelism, n) - 1)
	for range min(c.parallelism, n) - 1 {
		go func() {
			defer j.wg.Done()
			j.work()
		}()
	}
	j.work()
	j.wg.Wait()
	// A worker stops short of n only on cancellation.
	var cancelErr error
	started := min(int(j.next.Load()), n)
	if started < n {
		cancelErr = std.Err()
	}
	c.finishJob(stage, j.failed, cancelErr, n-started)
}

// job is the state the workers of one parallel runTasks call share:
// the next partition to claim and the failures they collect.
type job struct {
	c      *Context
	std    context.Context
	stage  string
	n      int
	fn     func(int)
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	failed []*TaskError
}

// work claims and runs tasks until none is left or the job's context
// is cancelled.
func (j *job) work() {
	for j.std.Err() == nil {
		i := int(j.next.Add(1) - 1)
		if i >= j.n {
			return
		}
		if te := j.c.execTask(j.std, j.stage, i, j.fn); te != nil {
			j.mu.Lock()
			j.failed = append(j.failed, te)
			j.mu.Unlock()
		}
	}
}
