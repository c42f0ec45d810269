package serve

import (
	"crypto/sha256"
	"net/http"
	"testing"

	"repro/internal/temporal"
)

// TestCanonicalGolden pins what a request body resolves to — the
// canonical chain (the operator part of its cache key), the range tag
// and the dependency interval — for bodies across the three query
// endpoints. A changed string here moves a cache key: every cached body
// of that shape would miss after an upgrade, and two spellings that
// shared an entry might stop sharing it.
func TestCanonicalGolden(t *testing.T) {
	full := temporal.Interval{}
	iv := func(s, e temporal.Time) temporal.Interval { return temporal.MustInterval(s, e) }
	cases := []struct {
		ep, body string
		canon    string
		tag      string
		dep      temporal.Interval
	}{
		{"azoom", `{"graph":"fig1","groupBy":"school"}`,
			`azoom(by="school",type="school-group",count="")`, "full", full},
		{"azoom", `{"graph":"fig1","groupBy":"school","newType":"S","count":"n"}`,
			`azoom(by="school",type="S",count="n")`, "full", full},
		{"azoom", `{"graph":"fig1","groupBy":"school,type=x","newType":"y"}`,
			`azoom(by="school,type=x",type="y",count="")`, "full", full},
		{"azoom", `{"graph":"fig1","groupBy":"school","newType":"x,type=y\"\\"}`,
			`azoom(by="school",type="x,type=y\"\\",count="")`, "full", full},
		{"wzoom", `{"graph":"fig1","window":"3 months"}`,
			`wzoom(w=3 units,vq=exists,eq=exists,vr=any,er=any)`, "full", full},
		{"wzoom", `{"graph":"fig1","window":"3 units"}`,
			`wzoom(w=3 units,vq=exists,eq=exists,vr=any,er=any)`, "full", full},
		{"wzoom", `{"graph":"fig1","window":"3 Months","vquant":"AT LEAST 0.5","equant":"all","vresolve":"last","eresolve":"first"}`,
			`wzoom(w=3 units,vq=at least 0.5,eq=all,vr=last,er=first)`, "full", full},
		{"wzoom", `{"graph":"fig1","window":"2 changes","vquant":"at least 0.50","equant":"most"}`,
			`wzoom(w=2 changes,vq=at least 0.5,eq=most,vr=any,er=any)`, "full", full},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"AZoom","groupBy":"school"}]}`,
			`azoom(by="school",type="school-group",count="")`, "full", full},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"range","start":2,"end":6},{"op":"wzoom","window":"3 units"}]}`,
			`range(2,6);wzoom(w=3 units,vq=exists,eq=exists,vr=any,er=any)`, "r2:6", iv(2, 6)},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"wzoom","window":"3 units"},{"op":"range","start":2,"end":6}]}`,
			`wzoom(w=3 units,vq=exists,eq=exists,vr=any,er=any);range(2,6)`, "full", full},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"range","start":1,"end":7},{"op":"wzoom","window":"2 units"},{"op":"range","start":3,"end":5}]}`,
			`range(1,7);wzoom(w=2 units,vq=exists,eq=exists,vr=any,er=any);range(3,5)`, "r1:7", iv(1, 7)},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"range","start":-5,"end":6},{"op":"range","start":3,"end":40}]}`,
			`range(-5,6);range(3,40)`, "r3:6", iv(3, 6)},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"azoom","groupBy":"school","count":"n"},{"op":"range","start":2,"end":5}]}`,
			`azoom(by="school",type="school-group",count="n");range(2,5)`, "r2:5", iv(2, 5)},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"switch","rep":" OG "},{"op":"azoom","groupBy":"school"}]}`,
			`switch(OG);azoom(by="school",type="school-group",count="")`, "full", full},
		{"pipeline", `{"graph":"fig1","steps":[{"op":"range","start":1,"end":6},{"op":"switch","rep":"rg"},{"op":"wzoom","window":"2 units","vquant":"at least 1e-1"}]}`,
			`range(1,6);switch(RG);wzoom(w=2 units,vq=at least 0.1,eq=exists,vr=any,er=any)`, "r1:6", iv(1, 6)},
	}
	s, _ := newTestServer(t, Config{})
	for _, c := range cases {
		w := doRaw(s, "/v1/"+c.ep, c.body)
		if w.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s", c.ep, c.body, w.Code, w.Body)
			continue
		}
		sum := sha256.Sum256([]byte(c.ep + "\x00" + c.body))
		e, ok := s.specs.get(&sum)
		if !ok {
			t.Errorf("%s %s: not in the spec index", c.ep, c.body)
			continue
		}
		if e.canon != c.canon || e.tag != c.tag || e.dep != c.dep {
			t.Errorf("%s %s:\n got %s | %s | %v\nwant %s | %s | %v", c.ep, c.body, e.canon, e.tag, e.dep, c.canon, c.tag, c.dep)
		}
	}
}
