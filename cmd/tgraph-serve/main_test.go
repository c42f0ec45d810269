package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/temporal"
)

func TestGraphFlagParsing(t *testing.T) {
	var g graphFlags
	if err := g.Set("snb=/data/snb"); err != nil {
		t.Fatal(err)
	}
	if err := g.Set("snap=/srv/snap@2024=x"); err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 || g[0].Dir != "/data/snb" || g[1].Name != "snap" || g[1].Dir != "/srv/snap@2024=x" {
		t.Errorf("parsed flags = %+v", g)
	}
	for _, bad := range []string{"", "noeq", "=dir", "name="} {
		if err := g.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// drainExit returns non-zero while a request is still in flight past
// the deadline, and zero once the server is idle.
func TestDrainTimeoutExitCode(t *testing.T) {
	dir := t.TempDir()
	ctx := dataflow.NewContext(dataflow.WithParallelism(2))
	g := core.NewVE(ctx, []core.VertexTuple{
		{ID: 1, Interval: temporal.MustInterval(1, 5), Props: props.New("type", "person")},
	}, nil)
	if err := storage.SaveGraph(dir, g, storage.SaveOptions{}); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	s, err := serve.New(serve.Config{
		Graphs: []serve.GraphConfig{{Name: "g", Dir: dir}},
		FaultHook: func(site string) error {
			if site == "serve.handler" {
				<-block
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(serve.WZoomRequest{Graph: "g", Window: "2 units"})
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		r := httptest.NewRequest("POST", "/v1/wzoom", bytes.NewReader(body))
		s.Handler().ServeHTTP(httptest.NewRecorder(), r)
	}()
	inflight := obs.Default().Gauge("serve.inflight")
	deadline := time.Now().Add(2 * time.Second)
	for inflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	if code := drainExit(s, 20*time.Millisecond); code != 1 {
		t.Errorf("drainExit with a stuck request = %d, want 1", code)
	}
	close(block)
	<-reqDone
	if code := drainExit(s, 2*time.Second); code != 0 {
		t.Errorf("drainExit after completion = %d, want 0", code)
	}
}
