package dataflow

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectJobError runs fn and returns the *JobError it panicked with
// (nil if it completed).
func collectJobError(t *testing.T, fn func()) *JobError {
	t.Helper()
	var je *JobError
	func() {
		defer func() {
			if r := recover(); r != nil {
				je = AsJobError(r)
				if je == nil {
					panic(r)
				}
			}
		}()
		fn()
	}()
	return je
}

func TestRunTasksAggregatesAllFailures(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			ctx := NewContext(WithParallelism(par))
			d := Parallelize(ctx, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8)
			je := collectJobError(t, func() {
				Map(d, func(v int) int {
					if v%3 == 0 {
						panic(fmt.Errorf("boom on %d", v))
					}
					return v
				})
			})
			if je == nil {
				t.Fatal("expected a JobError, job completed")
			}
			if je.Stage != "map" {
				t.Errorf("stage = %q, want map", je.Stage)
			}
			want := []int{0, 3, 6}
			got := je.FailedPartitions()
			if len(got) != len(want) {
				t.Fatalf("failed partitions = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("failed partitions = %v, want %v", got, want)
				}
			}
			for _, te := range je.Tasks {
				if te.Attempts != 1 {
					t.Errorf("partition %d attempts = %d, want 1 (no retry policy)", te.Partition, te.Attempts)
				}
				if len(te.Stack) == 0 {
					t.Errorf("partition %d missing stack", te.Partition)
				}
			}
			if m := ctx.Metrics(); m.TaskFailures != 3 {
				t.Errorf("TaskFailures = %d, want 3", m.TaskFailures)
			}
		})
	}
}

// The worker-occupancy gauge must return to zero after a panicking job
// on both the serial (n==1 || parallelism==1) and parallel paths.
func TestBusyGaugeBalancedAfterPanic(t *testing.T) {
	busy := obs.Default().Gauge("dataflow.workers_busy")
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			before := busy.Value()
			ctx := NewContext(WithParallelism(par))
			d := Parallelize(ctx, []int{0, 1, 2, 3}, 4)
			je := collectJobError(t, func() {
				Map(d, func(v int) int { panic("every task dies") })
			})
			if je == nil {
				t.Fatal("expected a JobError")
			}
			if got := busy.Value(); got != before {
				t.Errorf("obs workers_busy = %d after panic, want %d", got, before)
			}
			if got := ctx.busy.Load(); got != 0 {
				t.Errorf("context busy = %d after panic, want 0", got)
			}
		})
	}
}

func TestRetryTransientSucceeds(t *testing.T) {
	ctx := NewContext(
		WithParallelism(2),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}),
	)
	var attempts [4]int
	d := Parallelize(ctx, []int{0, 1, 2, 3}, 4)
	out := MapPartitions(d, func(part int, recs []int) []int {
		attempts[part]++
		if part == 2 && attempts[part] < 3 {
			panic(Transient(fmt.Errorf("flaky partition %d", part)))
		}
		return recs
	})
	if got := out.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if attempts[2] != 3 {
		t.Errorf("partition 2 ran %d times, want 3", attempts[2])
	}
	m := ctx.Metrics()
	if m.TaskRetries != 2 {
		t.Errorf("TaskRetries = %d, want 2", m.TaskRetries)
	}
	if m.TaskFailures != 0 {
		t.Errorf("TaskFailures = %d, want 0", m.TaskFailures)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	ctx := NewContext(
		WithParallelism(1),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
	)
	d := Parallelize(ctx, []int{0, 1}, 2)
	je := collectJobError(t, func() {
		Map(d, func(v int) int {
			if v == 1 {
				panic(Transient(errors.New("always flaky")))
			}
			return v
		})
	})
	if je == nil {
		t.Fatal("expected a JobError")
	}
	if len(je.Tasks) != 1 || je.Tasks[0].Partition != 1 || je.Tasks[0].Attempts != 2 {
		t.Fatalf("tasks = %+v, want one failure on partition 1 after 2 attempts", je.Tasks)
	}
	if !IsTransient(je) {
		t.Error("JobError should unwrap to the transient cause")
	}
	m := ctx.Metrics()
	if m.TaskRetries != 1 || m.TaskFailures != 1 {
		t.Errorf("retries=%d failures=%d, want 1/1", m.TaskRetries, m.TaskFailures)
	}
}

func TestNonTransientNotRetried(t *testing.T) {
	ctx := NewContext(
		WithParallelism(1),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond}),
	)
	runs := 0
	d := Parallelize(ctx, []int{0}, 1)
	je := collectJobError(t, func() {
		Map(d, func(v int) int {
			runs++
			panic(errors.New("hard failure"))
		})
	})
	if je == nil {
		t.Fatal("expected a JobError")
	}
	if runs != 1 {
		t.Errorf("task ran %d times, want 1 (non-transient must not retry)", runs)
	}
}

func TestPreCancelledContextSkipsJob(t *testing.T) {
	std, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := NewContext(WithParallelism(2), WithContext(std))
	d := Parallelize(NewContext(), []int{0, 1, 2, 3}, 4)
	// Rebind the dataset's context: build under a live context, run
	// under a cancelled one.
	d.ctx = ctx
	ran := false
	je := collectJobError(t, func() {
		Map(d, func(v int) int { ran = true; return v })
	})
	if je == nil {
		t.Fatal("expected a JobError")
	}
	if ran {
		t.Error("tasks ran under a cancelled context")
	}
	if !errors.Is(je, context.Canceled) {
		t.Errorf("errors.Is(je, context.Canceled) = false; err = %v", je)
	}
	if je.TasksSkipped != 4 {
		t.Errorf("TasksSkipped = %d, want 4", je.TasksSkipped)
	}
	if m := ctx.Metrics(); m.TasksCancelled != 4 {
		t.Errorf("TasksCancelled = %d, want 4", m.TasksCancelled)
	}
}

func TestDeadlineCancelsMidJob(t *testing.T) {
	ctx := NewContext(WithParallelism(1), WithTimeout(5*time.Millisecond))
	defer ctx.Close()
	d := Parallelize(ctx, make([]int, 64), 64)
	je := collectJobError(t, func() {
		MapPartitions(d, func(part int, recs []int) []int {
			time.Sleep(2 * time.Millisecond)
			return recs
		})
	})
	if je == nil {
		t.Fatal("expected the deadline to cut the job short")
	}
	if !errors.Is(je, context.DeadlineExceeded) {
		t.Errorf("errors.Is(DeadlineExceeded) = false; err = %v", je)
	}
	if je.TasksSkipped == 0 {
		t.Error("expected skipped tasks to be reported")
	}
	if m := ctx.Metrics(); m.TasksCancelled == 0 {
		t.Error("TasksCancelled = 0, want > 0")
	}
}

func TestBindAttachesDeadlineLate(t *testing.T) {
	ctx := NewContext(WithParallelism(2))
	d := Parallelize(ctx, []int{0, 1, 2, 3}, 4) // built under Background
	if out := Map(d, func(v int) int { return v + 1 }); out.Count() != 4 {
		t.Fatal("warm-up job failed")
	}
	std, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Bind(std)
	je := collectJobError(t, func() { Map(d, func(v int) int { return v }) })
	if je == nil || !errors.Is(je, context.Canceled) {
		t.Fatalf("after Bind, err = %v, want context.Canceled", je)
	}
	ctx.Bind(nil) // back to Background
	if out := Map(d, func(v int) int { return v }); out.Count() != 4 {
		t.Error("job failed after rebinding Background")
	}
}

func TestRunGuard(t *testing.T) {
	ctx := NewContext(WithParallelism(2))
	d := Parallelize(ctx, []int{0, 1}, 2)

	if err := ctx.Run(func() error { Map(d, func(v int) int { return v }); return nil }); err != nil {
		t.Errorf("healthy job: err = %v", err)
	}

	err := ctx.Run(func() error {
		Map(d, func(v int) int { panic("dead") })
		return nil
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *JobError", err)
	}

	// Panics not originating from the engine propagate unchanged.
	defer func() {
		if r := recover(); r == nil {
			t.Error("foreign panic was swallowed by Run")
		}
	}()
	_ = ctx.Run(func() error { panic("not an engine failure") })
}

func TestFaultHookSitesAndTransientInjection(t *testing.T) {
	var mu sync.Mutex
	sites := map[string]int{}
	hook := func(site string, part int) {
		mu.Lock()
		key := fmt.Sprintf("%s/%d", site, part)
		sites[site]++
		sites[key]++
		n := sites[key]
		mu.Unlock()
		if site == "dataflow.groupbykey" && part == 0 && n == 1 {
			panic(Transient(errors.New("injected")))
		}
	}
	ctx := NewContext(
		WithParallelism(2),
		WithFaultHook(hook),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond}),
	)
	d := Parallelize(ctx, []int{1, 2, 3, 4, 5, 6}, 3)
	groups := GroupByKey(d, func(v int) int { return v % 2 }, cmp.Compare[int])
	if got := groups.Count(); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	// A GroupByKey is two stages: route, then group straight from the
	// source partitions. It has no map and no gather stage.
	if sites["dataflow.shuffle-route"] != 3 || sites["dataflow.groupbykey"] != 4 {
		t.Errorf("expected 3 route and 3+1 group attempts, got %v", sites)
	}
	if sites["dataflow.map"] != 0 || sites["dataflow.shuffle-gather"] != 0 {
		t.Errorf("GroupByKey visited a map or gather stage: %v", sites)
	}
	if m := ctx.Metrics(); m.TaskRetries != 1 {
		t.Errorf("TaskRetries = %d, want 1 (injected transient)", m.TaskRetries)
	}
}

func TestJobErrorMessageNamesPartitions(t *testing.T) {
	je := &JobError{
		Stage: "map",
		Tasks: []*TaskError{
			{Stage: "map", Partition: 2, Attempts: 1, Err: errors.New("x")},
			{Stage: "map", Partition: 5, Attempts: 3, Err: errors.New("y")},
		},
	}
	msg := je.Error()
	for _, want := range []string{`stage "map"`, "[2 5]", "2 task(s)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
}
