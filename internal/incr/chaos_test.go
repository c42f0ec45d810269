package incr

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/props"
	"repro/internal/storage/wal"
	"repro/internal/temporal"
)

// TestChaosIncrMaintenance injects faults at the incr.apply.* sites
// while random delta batches flow through both view kinds, with
// concurrent readers racing every Apply. The contract under test:
//
//   - a failed Apply leaves the view byte-identical to its pre-delta
//     state (retrying the same batch then succeeds and lands exactly
//     the post-delta state);
//   - every concurrent Result observes one of the batch-boundary
//     states — pre-delta or post-delta, each byte-identical to a full
//     recompute of the corresponding graph prefix — never a
//     half-patched hybrid.
func TestChaosIncrMaintenance(t *testing.T) {
	ctx := testCtx()
	azSpec := core.GroupByProperty("grp", "G",
		props.Count("n"),
		props.Sum("s", "val"),
		props.Min("m", "val"),
		props.Any("a", "val"),
	)
	wzSpec := core.WZoomSpec{
		Window:   temporal.MustEveryN(4),
		VQuant:   temporal.Most(),
		EQuant:   temporal.Exists(),
		VResolve: props.ResolveSpec{Default: props.ResolveFirst, PerKey: map[string]props.Resolver{"val": props.ResolveLast}},
		EResolve: props.LastWins,
	}

	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := genScenario(rand.New(rand.NewSource(seed)))
			base := core.NewVE(ctx, c.baseV, c.baseE)

			// Expected canonical result after each batch prefix, from a
			// full from-scratch zoom — the only states a reader may see.
			type expect struct{ az, wz string }
			vs, es := slices.Clone(c.baseV), slices.Clone(c.baseE)
			snap := func() expect {
				g := core.NewVE(ctx, vs, es)
				az, err := g.AZoom(azSpec)
				if err != nil {
					t.Fatalf("batch azoom: %v", err)
				}
				wz, err := g.Coalesce().WZoom(wzSpec)
				if err != nil {
					t.Fatalf("batch wzoom: %v", err)
				}
				return expect{az: canonGraph(az), wz: canonGraph(wz)}
			}
			prefixes := []expect{snap()}
			for _, batch := range c.batches {
				for _, d := range batch {
					switch d.Kind {
					case wal.KindVertex:
						tu, _ := d.VertexTuple()
						vs = append(vs, tu)
					case wal.KindEdge:
						tu, _ := d.EdgeTuple()
						es = append(es, tu)
					}
				}
				prefixes = append(prefixes, snap())
			}
			legalAZ := make(map[string]bool, len(prefixes))
			legalWZ := make(map[string]bool, len(prefixes))
			for _, e := range prefixes {
				legalAZ[e.az] = true
				legalWZ[e.wz] = true
			}

			inj := faults.New(seed, faults.Rule{Site: "incr.", Kind: faults.Transient, Prob: 0.5})
			opts := Options{Hook: inj.ServeHook()}
			az, err := NewAZoomView(base, azSpec, opts)
			if err != nil {
				t.Fatalf("NewAZoomView: %v", err)
			}
			wz, err := NewWZoomView(base, wzSpec, opts)
			if err != nil {
				t.Fatalf("NewWZoomView: %v", err)
			}
			canonView := func(v View) string {
				rvs, res := v.Result()
				return canonTuples(ctx, rvs, res)
			}

			// Concurrent readers: every observation must be a legal
			// batch-boundary state.
			done := make(chan struct{})
			var wg sync.WaitGroup
			var readerMu sync.Mutex
			var readerErr error
			reader := func(v View, legal map[string]bool, name string) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if got := canonView(v); !legal[got] {
						readerMu.Lock()
						if readerErr == nil {
							readerErr = fmt.Errorf("%s reader observed a non-boundary state:\n%s", name, got)
						}
						readerMu.Unlock()
						return
					}
				}
			}
			wg.Add(2)
			go reader(az, legalAZ, "azoom")
			go reader(wz, legalWZ, "wzoom")

			faultsInjected := 0
			for bi, batch := range c.batches {
				for _, v := range []View{az, wz} {
					before := canonView(v)
					applied := false
					for attempt := 0; attempt < 100; attempt++ {
						if _, err := v.Apply(batch); err != nil {
							faultsInjected++
							// A failed Apply must leave the view at its
							// pre-delta state.
							if got := canonView(v); got != before {
								t.Fatalf("batch %d: view changed after failed Apply:\n got %s\nwant %s", bi, got, before)
							}
							continue
						}
						applied = true
						break
					}
					if !applied {
						t.Fatalf("batch %d: Apply never succeeded under injection", bi)
					}
				}
				want := prefixes[bi+1]
				if got := canonView(az); got != want.az {
					t.Fatalf("batch %d: azoom view diverged from full recompute:\n got %s\nwant %s", bi, got, want.az)
				}
				if got := canonView(wz); got != want.wz {
					t.Fatalf("batch %d: wzoom view diverged from full recompute:\n got %s\nwant %s", bi, got, want.wz)
				}
			}
			close(done)
			wg.Wait()
			if readerErr != nil {
				t.Fatal(readerErr)
			}
			if faultsInjected == 0 {
				t.Fatalf("injector never fired; chaos run exercised nothing")
			}
		})
	}
}
