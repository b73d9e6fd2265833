package main

import (
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// OPERATIONS.md is the operator contract for this daemon. These tests keep it
// honest mechanically: every flag the binary declares and every metric key
// the live /metrics document emits must be mentioned there, so a flag or
// counter added without documentation fails `go test`; and every flag §1's
// table documents must be declared, so one removed cannot linger there.

func readOperationsMD(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("OPERATIONS.md must exist at the repo root: %v", err)
	}
	return string(data)
}

// declaredFlags returns the name of every flag main.go declares.
func declaredFlags(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	flagDecl := regexp.MustCompile(`flag\.(?:String|Int|Int64|Uint64|Float64|Bool|Duration)\("([^"]+)"`)
	matches := flagDecl.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 15 {
		t.Fatalf("found only %d flag declarations in main.go; the regex has rotted", len(matches))
	}
	out := make(map[string]bool, len(matches))
	for _, m := range matches {
		out[m[1]] = true
	}
	return out
}

func TestOperationsDocCoversEveryFlag(t *testing.T) {
	ops := readOperationsMD(t)
	for name := range declaredFlags(t) {
		if !strings.Contains(ops, "`-"+name+"`") {
			t.Errorf("flag -%s is not documented in OPERATIONS.md", name)
		}
	}
}

// The other direction: every row of §1's flag table names a flag the binary
// declares, so a removed flag cannot stay documented.
func TestOperationsDocFlagTableIsDeclared(t *testing.T) {
	ops := readOperationsMD(t)
	start, end := strings.Index(ops, "\n## 1. "), strings.Index(ops, "\n## 2. ")
	if start < 0 || end < start {
		t.Fatal("OPERATIONS.md has no §1 followed by §2")
	}
	rows := regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|").FindAllStringSubmatch(ops[start:end], -1)
	declared := declaredFlags(t)
	if len(rows) < len(declared) {
		t.Fatalf("found %d flag rows in §1 for %d declared flags; the regex has rotted", len(rows), len(declared))
	}
	for _, m := range rows {
		if !declared[m[1]] {
			t.Errorf("OPERATIONS.md §1 documents -%s, which main.go does not declare", m[1])
		}
	}
}

func TestOperationsDocCoversEveryMetricKey(t *testing.T) {
	ops := readOperationsMD(t)
	ts, _, _ := tracedServer(t, 1, time.Nanosecond)
	// Exercise enough of the system that every section materializes: a
	// single-graph solve (engine, thorup, tracing stage histograms) and a
	// batch.
	for _, url := range []string{"/sssp?src=1&solver=thorup", "/sssp?src=2"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var m map[string]any
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	statusClass := regexp.MustCompile(`^\dxx$`)
	var undocumented []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, child := range obj {
			if statusClass.MatchString(k) {
				// Status classes are documented as a pattern ("2xx, 4xx, ...").
				continue
			}
			if !strings.Contains(ops, "`"+k+"`") {
				undocumented = append(undocumented, prefix+k)
			}
			walk(prefix+k+".", child)
		}
	}
	walk("", m)
	for _, k := range undocumented {
		t.Errorf("/metrics key %q is not documented in OPERATIONS.md", k)
	}
}
