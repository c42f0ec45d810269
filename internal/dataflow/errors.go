package dataflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Failure model of the engine. Spark survives task failures by
// retrying tasks and killing jobs cleanly; this in-process substitute
// mirrors that contract with three pieces:
//
//   - every panic inside a partition task is captured as a *TaskError
//     (partition index, stage name, attempt count, stack);
//   - a job aggregates *all* of its task failures — not just the first —
//     into one *JobError, which also records whether the job was cut
//     short by cancellation;
//   - tasks failing with a Transient-wrapped error are re-executed with
//     jittered exponential backoff up to RetryPolicy.MaxAttempts.
//
// Because transformations are eager and value-returning (Map,
// GroupByKey, … cannot return an error without breaking the
// second-order-function shape of the paper's algorithms), a failed job
// panics with its
// *JobError; Context.Run converts that panic back into an ordinary
// error at the job boundary, and the zoom entry points in internal/core
// wrap their pipelines in it so callers never need recover.

// TaskError describes one failed partition task: which stage, which
// partition, how many attempts were made, the recovered panic value and
// the stack of the final attempt.
type TaskError struct {
	// Stage is the engine stage the task belonged to ("map",
	// "shuffle-route", …).
	Stage string
	// Partition is the index of the failed partition task.
	Partition int
	// Attempts is the number of executions attempted (> 1 when
	// transient failures were retried).
	Attempts int
	// Err is the failure of the final attempt. Panic values that are
	// not errors are wrapped into one.
	Err error
	// Stack is the goroutine stack captured at the final panic.
	Stack []byte
}

// Error implements error.
func (e *TaskError) Error() string {
	return fmt.Sprintf("task %d of stage %q failed after %d attempt(s): %v",
		e.Partition, e.Stage, e.Attempts, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }

// JobError aggregates every failure of one parallel job. It is the
// single typed error the engine reports: the value a failed
// transformation panics with, and the error Context.Run (and the zoom
// entry points built on it) return.
type JobError struct {
	// Stage is the engine stage of the job.
	Stage string
	// Tasks holds one *TaskError per failed partition, ordered by
	// partition index.
	Tasks []*TaskError
	// Cancel is non-nil when the job was cut short by context
	// cancellation; it is the context's error, so
	// errors.Is(err, context.DeadlineExceeded) works on the JobError.
	Cancel error
	// TasksSkipped is the number of tasks never executed because the
	// job was cancelled first.
	TasksSkipped int
}

// Error implements error, naming the failed partitions.
func (e *JobError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow: stage %q:", e.Stage)
	if len(e.Tasks) > 0 {
		fmt.Fprintf(&b, " %d task(s) failed on partitions %v: %v",
			len(e.Tasks), e.FailedPartitions(), e.Tasks[0].Err)
	}
	if e.Cancel != nil {
		if len(e.Tasks) > 0 {
			b.WriteString(";")
		}
		fmt.Fprintf(&b, " job cancelled (%d task(s) skipped): %v", e.TasksSkipped, e.Cancel)
	}
	return b.String()
}

// Unwrap exposes every task failure plus the cancellation cause to
// errors.Is/As.
func (e *JobError) Unwrap() []error {
	out := make([]error, 0, len(e.Tasks)+1)
	for _, t := range e.Tasks {
		out = append(out, t)
	}
	if e.Cancel != nil {
		out = append(out, e.Cancel)
	}
	return out
}

// FailedPartitions returns the partition indices that failed, sorted.
func (e *JobError) FailedPartitions() []int {
	out := make([]int, len(e.Tasks))
	for i, t := range e.Tasks {
		out[i] = t.Partition
	}
	sort.Ints(out)
	return out
}

// transientError marks a failure as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so that a task failing with it (by panicking with
// the wrapped error, or returning it from code that panics on its
// behalf) is re-executed under the context's RetryPolicy. Use it for
// failures that a fresh attempt can plausibly clear: contended
// resources, injected chaos faults, flaky IO.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is (or wraps) a Transient-marked
// failure.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// panicToError converts a recovered panic value into an error.
func panicToError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// AsJobError returns the *JobError inside a recovered panic value, or
// nil if the panic did not originate from the engine's failure path.
// It is the building block for guards like Context.Run.
func AsJobError(r any) *JobError {
	err, ok := r.(error)
	if !ok {
		return nil
	}
	var je *JobError
	if errors.As(err, &je) {
		return je
	}
	return nil
}
