package dataflow

import (
	"cmp"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMetricsSnapshotRace hammers Metrics and ResetMetrics while jobs
// run, exercising the snapshot contract under the race detector: a
// snapshot or reset excludes in-flight counter update groups, and
// counters never go negative.
func TestMetricsSnapshotRace(t *testing.T) {
	ctx := NewContext(WithParallelism(4), WithDefaultPartitions(4))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			data := make([]int, 256)
			for i := range data {
				data[i] = (i * 7) % 31
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d := Parallelize(ctx, data, 4)
				GroupByKey(d, func(v int) int { return v % 5 }, cmp.Compare[int]).Count()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		m := ctx.Metrics()
		if m.Tasks < 0 || m.ShuffledRecords < 0 || m.Shuffles < 0 || m.MaxWorkersBusy < 0 {
			t.Errorf("snapshot went negative: %+v", m)
			break
		}
		if i%20 == 0 {
			ctx.ResetMetrics()
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsCounters(t *testing.T) {
	ctx := NewContext(WithParallelism(2), WithDefaultPartitions(2))
	data := make([]int, 100)
	for i := range data {
		data[i] = i
	}
	d := Parallelize(ctx, data, 4)
	GroupByKey(d, func(v int) int { return v % 3 }, cmp.Compare[int]).Count()
	m := ctx.Metrics()
	if m.Jobs == 0 || m.Tasks == 0 {
		t.Errorf("jobs/tasks not counted: %+v", m)
	}
	if m.Shuffles != 1 {
		t.Errorf("shuffles = %d, want 1", m.Shuffles)
	}
	if m.ShuffledRecords != 100 {
		t.Errorf("shuffled records = %d, want 100", m.ShuffledRecords)
	}
	if m.ShufflePartitions != 4 {
		t.Errorf("shuffle partitions = %d, want 4", m.ShufflePartitions)
	}
	if m.MaxWorkersBusy < 1 || m.MaxWorkersBusy > 2 {
		t.Errorf("max workers busy = %d, want within [1,2]", m.MaxWorkersBusy)
	}
	ctx.ResetMetrics()
	if got := ctx.Metrics(); got.Tasks != 0 || got.Shuffles != 0 || got.ShuffledRecords != 0 {
		t.Errorf("metrics after reset = %+v", got)
	}
	if s := m.String(); s == "" {
		t.Error("Metrics.String empty")
	}
}

// TestRunTasksAllocations: a parallel job allocates per worker, not
// per task — its workers claim partitions instead of each task getting
// a goroutine.
func TestRunTasksAllocations(t *testing.T) {
	ctx := NewContext(WithParallelism(2))
	fn := func(int) {}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() { ctx.runTasks("allocs", n, fn) })
	}
	if few, many := allocs(8), allocs(256); few != many {
		t.Errorf("runTasks allocs: %v for 8 tasks, %v for 256 — want the same", few, many)
	}
}

// TestRunTasksRespectsParallelism: with tasks that block until every
// worker holds one, exactly parallelism tasks run at once, never more.
func TestRunTasksRespectsParallelism(t *testing.T) {
	for _, par := range []int{2, 3} {
		ctx := NewContext(WithParallelism(par))
		var mu sync.Mutex
		in := 0
		all := make(chan struct{})
		ctx.runTasks("barrier", 4*par, func(int) {
			mu.Lock()
			if in++; in == par {
				close(all)
			}
			mu.Unlock()
			<-all
		})
		if m := ctx.Metrics(); m.MaxWorkersBusy != int64(par) {
			t.Errorf("parallelism %d: MaxWorkersBusy = %d, want %d", par, m.MaxWorkersBusy, par)
		}
	}
}

// TestCancelledJobLeavesNoGoroutine: a job cut short by its deadline
// returns only after every worker it started has stopped.
func TestCancelledJobLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := NewContext(WithParallelism(4), WithTimeout(5*time.Millisecond))
	defer ctx.Close()
	d := Parallelize(ctx, make([]int, 256), 256)
	je := collectJobError(t, func() {
		MapPartitions(d, func(part int, recs []int) []int {
			time.Sleep(time.Millisecond)
			return recs
		})
	})
	if je == nil || je.TasksSkipped == 0 {
		t.Fatalf("expected the deadline to cut the job short, got %v", je)
	}
	// A worker that has signalled its WaitGroup may take a moment to
	// exit; poll instead of asserting on one reading.
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after the cancelled job, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
