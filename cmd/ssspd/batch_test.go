package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dijkstra"
	"repro/internal/graph"
)

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

type batchResp struct {
	Results []struct {
		Solver       string  `json:"solver"`
		Via          string  `json:"via"`
		Reached      int     `json:"reached"`
		Eccentricity int64   `json:"eccentricity"`
		Dist         []int64 `json:"dist"`
		Error        string  `json:"error"`
		Status       int     `json:"status"`
	} `json:"results"`
}

// POST /batch answers every query, honours per-item and batch-level solver
// selection, and returns full vectors when asked.
func TestBatchEndpoint(t *testing.T) {
	ts, g := testServer(t)
	var resp batchResp
	code := postJSON(t, ts.URL+"/batch",
		`{"queries":[{"src":3},{"src":10,"solver":"dijkstra"},{"srcs":[3,10]}],"solver":"thorup","full":true}`,
		&resp)
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Solver != "thorup" || resp.Results[1].Solver != "dijkstra" || resp.Results[2].Solver != "thorup" {
		t.Fatalf("solver routing: %s %s %s",
			resp.Results[0].Solver, resp.Results[1].Solver, resp.Results[2].Solver)
	}
	oracle3 := dijkstra.SSSP(g, 3)
	oracle10 := dijkstra.SSSP(g, 10)
	for v := range oracle3 {
		want0, want10 := oracle3[v], oracle10[v]
		multi := want0
		if want10 < multi {
			multi = want10
		}
		for i, want := range []int64{want0, want10, multi} {
			if want == graph.Inf {
				want = -1
			}
			if resp.Results[i].Dist[v] != want {
				t.Fatalf("result %d dist[%d] = %d, want %d", i, v, resp.Results[i].Dist[v], want)
			}
		}
	}
}

// A bad item reports its own error without failing the batch.
func TestBatchPerItemError(t *testing.T) {
	ts, _ := testServer(t)
	var resp batchResp
	code := postJSON(t, ts.URL+"/batch",
		`{"queries":[{"src":1},{"src":99999},{"src":0,"solver":"nope"}]}`, &resp)
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Reached == 0 {
		t.Fatalf("good item: %+v", resp.Results[0])
	}
	for i := 1; i < 3; i++ {
		if resp.Results[i].Error == "" || resp.Results[i].Status != http.StatusBadRequest {
			t.Fatalf("bad item %d: %+v", i, resp.Results[i])
		}
	}
}

// Every JSON body — /batch and the load, reload and unload requests — is one
// value: anything after it is a 400, and nothing is done.
func TestBodiesRefuseTrailingData(t *testing.T) {
	ts, _ := testServer(t)
	for path, body := range map[string]string{
		"/batch":         `{"queries":[{"src":1}]}{}`,
		"/graphs/load":   `{"name":"g2","class":"rand","logn":6}{}`,
		"/graphs/reload": `{"name":"test-instance"} x`,
		"/graphs/unload": `{"name":"test-instance"}[]`,
	} {
		var e map[string]any
		if code := postJSON(t, ts.URL+path, body, &e); code != http.StatusBadRequest {
			t.Fatalf("%s %s: code %d (%v), want 400", path, body, code, e)
		}
	}
	var graphs struct {
		Graphs []struct {
			Name  string `json:"name"`
			State string `json:"state"`
			Gen   uint64 `json:"gen"`
		} `json:"graphs"`
	}
	getJSON(t, ts.URL+"/graphs", &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].State != "ready" || graphs.Graphs[0].Gen != 1 {
		t.Fatalf("a refused body changed the catalog: %+v", graphs.Graphs)
	}
}

// Malformed, empty, and oversized batches are rejected up front with 400.
func TestBatchValidation(t *testing.T) {
	ts, _ := testServer(t)
	tooBig := `{"queries":[`
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			tooBig += ","
		}
		tooBig += `{"src":0}`
	}
	tooBig += `]}`
	for _, body := range []string{
		`not json`,
		`{"queries":[]}`,
		`{}`,
		`{"queries":[{"src":0}],"bogus":1}`,
		tooBig,
	} {
		var e map[string]string
		if code := postJSON(t, ts.URL+"/batch", body, &e); code != http.StatusBadRequest {
			t.Fatalf("body %.40q: code %d, want 400", body, code)
		}
		if e["error"] == "" {
			t.Fatalf("body %.40q: missing error message", body)
		}
	}
}

// Identical queries are answered from the result cache: the second /sssp
// reports via=cache, and full=1 streams the serialized vector without
// re-marshaling (the bytes-from-cache counter moves).
func TestSSSPCachedFullServing(t *testing.T) {
	ts, g := testServer(t)
	var first, second struct {
		Via  string  `json:"via"`
		Dist []int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/sssp?src=42&full=1&solver=dijkstra", &first); code != 200 {
		t.Fatalf("first: %d", code)
	}
	if first.Via != "solve" {
		t.Fatalf("first via = %s, want solve", first.Via)
	}
	if code := getJSON(t, ts.URL+"/sssp?src=42&full=1&solver=dijkstra", &second); code != 200 {
		t.Fatalf("second: %d", code)
	}
	if second.Via != "cache" {
		t.Fatalf("second via = %s, want cache", second.Via)
	}
	want := dijkstra.SSSP(g, 42)
	for v := range want {
		w := want[v]
		if w == graph.Inf {
			w = -1
		}
		if first.Dist[v] != w || second.Dist[v] != w {
			t.Fatalf("dist[%d] = %d/%d, want %d", v, first.Dist[v], second.Dist[v], w)
		}
	}
	var m struct {
		Engine struct {
			CacheHits          int64 `json:"cache_hits"`
			FullJSONBuilt      int64 `json:"full_json_built"`
			FullBytesFromCache int64 `json:"full_bytes_from_cache"`
		} `json:"engine"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if m.Engine.CacheHits != 1 || m.Engine.FullJSONBuilt != 1 || m.Engine.FullBytesFromCache <= 0 {
		t.Fatalf("cached serving counters: %+v", m.Engine)
	}
}

// /sssp, /batch and /table answer with the bytes encoding/json gives the maps
// of their fields: keys sorted, the vector as its JSON array with -1 for
// unreachable, trace_id on every batch item of a traced request — for a miss,
// a hit, full=1 on each, and a batch holding an error item.
func TestVectorBodiesMatchMapEncoding(t *testing.T) {
	ts, _, _ := tracedServer(t, 1, 0)
	g, _ := testGraph()
	do := func(method, path, body string) []byte {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		req.Header.Set("X-Trace-Id", "bodies-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("%s %s: %d %.200s %v", method, path, resp.StatusCode, got, err)
		}
		return got
	}
	same := func(what string, got []byte, old any) {
		t.Helper()
		want, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%s: body %.300q, the map encodes to %.300q", what, got, want)
		}
	}
	// answer is the map an answered query from srcs was encoded from, with the
	// plan fields the response reports.
	answer := func(got []byte, srcs ...int32) (map[string]any, []int64) {
		t.Helper()
		var plan struct{ Solver, Via string }
		if err := json.Unmarshal(got, &plan); err != nil {
			t.Fatal(err)
		}
		d := dijkstra.SSSPFromSources(g, srcs)
		reached, ecc := 0, int64(0)
		for v := range d {
			if d[v] < graph.Inf {
				reached, ecc = reached+1, max(ecc, d[v])
			}
			d[v] = jsonDist(d[v])
		}
		return map[string]any{"solver": plan.Solver, "via": plan.Via, "reached": reached, "eccentricity": ecc}, d
	}

	for _, q := range []struct {
		src  int32
		full bool
	}{{3, false}, {3, false}, {3, true}, {8, true}, {8, true}} { // miss, hit, hit; miss, hit
		path := fmt.Sprintf("/sssp?src=%d", q.src)
		if q.full {
			path += "&full=1"
		}
		got := do("GET", path, "")
		old, dist := answer(got, q.src)
		old["src"] = q.src
		if q.full {
			old["dist"] = dist
		}
		same(path, got, old)
	}

	for _, full := range []bool{false, true} {
		body := fmt.Sprintf(`{"full":%v,"queries":[{"src":3},{"src":-9},{"srcs":[5,11]},{"src":12}]}`, full)
		got := do("POST", "/batch", body)
		var items struct{ Results []json.RawMessage }
		if err := json.Unmarshal(got, &items); err != nil || len(items.Results) != 4 {
			t.Fatalf("batch: %s %v", got, err)
		}
		var old []map[string]any
		for i, srcs := range [][]int32{{3}, nil, {5, 11}, {12}} {
			if srcs == nil {
				var e struct{ Error string }
				json.Unmarshal(items.Results[i], &e)
				old = append(old, map[string]any{"error": e.Error, "status": 400, "trace_id": "bodies-1"})
				continue
			}
			item, dist := answer(items.Results[i], srcs...)
			item["trace_id"] = "bodies-1"
			if full {
				item["dist"] = dist
			}
			old = append(old, item)
		}
		same(body, got, map[string]any{"results": old})
	}

	got := do("GET", "/table?src=3,5&dst=1,2,3", "")
	var rows [][]int64
	for _, src := range []int32{3, 5} {
		d := dijkstra.SSSP(g, src)
		rows = append(rows, []int64{jsonDist(d[1]), jsonDist(d[2]), jsonDist(d[3])})
	}
	same("/table", got, map[string]any{"src": []int32{3, 5}, "dst": []int32{1, 2, 3}, "dist": rows})
}
