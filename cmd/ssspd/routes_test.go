package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/ch"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// routeCase is one request of the content-type walk: body == "" is a GET.
type routeCase struct {
	path, body string
	status     int
}

// send issues one case against base and returns the answer, body closed.
func send(t *testing.T, base string, c routeCase) *http.Response {
	t.Helper()
	var resp *http.Response
	var err error
	if c.body == "" {
		resp, err = http.Get(base + c.path)
	} else {
		resp, err = http.Post(base+c.path, "application/json", strings.NewReader(c.body))
	}
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// walkRoutes issues every case against base and asserts the status and that
// the answer is typed — application/json everywhere.
func walkRoutes(t *testing.T, base string, cases []routeCase) {
	t.Helper()
	for _, c := range cases {
		resp := send(t, base, c)
		const want = "application/json"
		if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != want {
			t.Errorf("%s: %d %q, want %d %q", c.path, resp.StatusCode, resp.Header.Get("Content-Type"), c.status, want)
		}
	}
}

// Every route of both daemons answers typed JSON on its success path and on
// an error path — including the non-200s, whose Content-Type used to be set
// after the status line had gone out (and so arrived as text/plain).
func TestEveryRouteAnswersTypedJSON(t *testing.T) {
	ts, srv, g := testServerOpts(t, 64, 30*time.Second)
	// One spare graph per state-changing admin call, so no case meets
	// another's lifecycle change.
	h := ch.BuildKruskal(g)
	src := catalog.Source{Loader: func() (*graph.Graph, *ch.Hierarchy, error) { return g, h, nil }}
	for _, name := range []string{"small", "wide", "reload", "unload"} {
		if _, err := srv.cat.AddPrebuilt(name, src, g, h, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wide mutate.Batch // 41 of 500 vertices touched, repaired once a query has used the hierarchy
	for i := 0; i < 40; i++ {
		wide.Ops = append(wide.Ops, mutate.Op{Op: mutate.OpInsert, U: 0, V: int32(100 + 10*i), W: 2})
	}
	walkRoutes(t, ts.URL, []routeCase{
		{"/healthz", "", 200},
		{"/stats", "", 200}, {"/stats?graph=nope", "", 404},
		{"/metrics", "", 200},
		{"/sssp?src=1", "", 200}, {"/sssp?src=-1", "", 400}, {"/sssp?src=1&graph=nope", "", 404},
		{"/dist?src=0&dst=1", "", 200}, {"/dist?src=0", "", 400},
		{"/st?s=0&t=1", "", 200}, {"/st?s=0", "", 400},
		{"/table?src=0,1&dst=2", "", 200}, {"/table?src=0", "", 400},
		{"/batch", `{"queries":[{"src":1}]}`, 200}, {"/batch", `{"nope":1}`, 400},
		{"/graphs", "", 200},
		{"/graphs/load", `{"name":"loaded","class":"rand","logn":6,"logc":4,"seed":1}`, 200},
		{"/graphs/load", `{}`, 400}, {"/graphs/load", `{"name":"small","class":"rand"}`, 409},
		{"/graphs/reload", `{"name":"reload"}`, 200}, {"/graphs/reload", `{"name":"nope"}`, 404},
		{"/graphs/unload", `{"name":"unload"}`, 200}, {"/graphs/unload", `{"name":"nope"}`, 404},
		{"/graphs/small/mutate", mutateBody(t, pickEdges(g, 4, 11)), 200},
		{"/sssp?src=1&solver=thorup&graph=wide", "", 200}, {"/graphs/wide/mutate", mutateBody(t, &wide), 200},
		{"/graphs/small/mutate", `{"ops":[{"op":"nope"}]}`, 400}, {"/graphs/nope/mutate", mutateBody(t, &wide), 404},
		{"/debug/traces", "", 200}, {"/debug/traces?limit=0", "", 400},
	})
	// The learned cost model's two routes are gone: the mux's own 404, in
	// text/plain.
	for _, c := range []routeCase{{"/debug/costmodel/dataset", "", 404}, {"/debug/costmodel/reload", `{}`, 404}} {
		if resp := send(t, ts.URL, c); resp.StatusCode != c.status {
			t.Errorf("%s: %d, want %d", c.path, resp.StatusCode, c.status)
		}
	}

	queries := []routeCase{
		{"/sssp?src=1", "", 0}, {"/dist?src=0&dst=1", "", 0}, {"/st?s=0&t=1", "", 0},
		{"/table?src=0&dst=1", "", 0}, {"/batch", `{"queries":[{"src":1}]}`, 0},
	}
	withStatus := func(status int) []routeCase {
		out := append([]routeCase(nil), queries...)
		for i := range out {
			out[i].status = status
		}
		return out
	}
	shedTS, shedSrv, _ := testServerOpts(t, 1, time.Minute)
	shedSrv.sem <- struct{}{} // the one admission slot is taken
	walkRoutes(t, shedTS.URL, withStatus(503))
	<-shedSrv.sem
	lateTS, _, _ := testServerOpts(t, 8, time.Nanosecond)
	walkRoutes(t, lateTS.URL, withStatus(504))

	// The routing tier: its own endpoints, the proxied surface, and its own
	// error answers (no default graph is configured, so ?graph= is mandatory).
	backend := bootBackend(t, "wl-a")
	rts, _ := routerBoot(t, time.Hour, map[string]string{"b1": backend.URL})
	const on = "graph=wl-a"
	walkRoutes(t, rts.URL, []routeCase{
		{"/healthz", "", 200}, {"/metrics", "", 200}, {"/fleet", "", 200},
		{"/route?" + on, "", 200}, {"/route", "", 400},
		{"/debug/traces", "", 200}, {"/debug/traces?min_ms=x", "", 400},
		{"/sssp?src=1&" + on, "", 200}, {"/sssp?src=1", "", 400},
		{"/dist?src=0&dst=1&" + on, "", 200}, {"/dist?src=0&" + on, "", 400},
		{"/st?s=0&t=1&" + on, "", 200}, {"/st?s=0&t=1&graph=nope", "", 503},
		{"/table?src=0&dst=1&" + on, "", 200}, {"/table?src=0&" + on, "", 400},
		{"/batch?" + on, `{"queries":[{"src":1}]}`, 200}, {"/batch?" + on, `{"queries":[]}`, 400},
	})
}
