package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/solver"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// solverLines returns the names leading the per-solver result lines.
func solverLines(stdout string) []string {
	var names []string
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.Contains(line, "reached=") {
			names = append(names, f[0])
		}
	}
	return names
}

// -algo all is the registry filtered by Applicable: every weighted solver on
// a weighted instance, plus bfs on a unit-weight one, each certified.
func TestAlgoAllRunsTheApplicableRegistry(t *testing.T) {
	for _, tc := range []struct {
		logc string
		want []string
	}{
		{"14", []string{"thorup", "thorup-serial", "dijkstra", "delta", "mlb"}},
		{"0", solver.Names()},
	} {
		code, stdout, stderr := runCLI("-gen", "rand", "-logn", "8", "-logc", tc.logc, "-algo", "all", "-certify")
		if code != 0 {
			t.Fatalf("logc=%s: exit %d, stderr %q", tc.logc, code, stderr)
		}
		if got := solverLines(stdout); strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("logc=%s: ran %v, want %v", tc.logc, got, tc.want)
		}
		if !strings.Contains(stdout, "certification: all results are exact") {
			t.Errorf("logc=%s: no certification line in %q", tc.logc, stdout)
		}
		if n := strings.Count(stdout, "component hierarchy:"); n != 1 {
			t.Errorf("logc=%s: hierarchy reported %d times, want once", tc.logc, n)
		}
	}
}

func TestUnknownAlgoListsTheRegistry(t *testing.T) {
	code, _, stderr := runCLI("-gen", "rand", "-logn", "8", "-algo", "nope")
	if code == 0 {
		t.Fatal("unknown algorithm exited 0")
	}
	for _, name := range solver.Names() {
		if !strings.Contains(stderr, name) {
			t.Errorf("message %q does not list %s", stderr, name)
		}
	}
}

// bfs on a weighted instance would print hop counts as distances: refused.
func TestInapplicableAlgoRefused(t *testing.T) {
	if code, _, stderr := runCLI("-gen", "rand", "-logn", "8", "-algo", "bfs"); code == 0 || !strings.Contains(stderr, "unit edge weights") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// -delta sets the instance's bucket width; any width gives exact distances,
// and a CH-free selection never builds the hierarchy.
func TestDeltaOverrideCertifies(t *testing.T) {
	code, stdout, stderr := runCLI("-gen", "rand", "-logn", "8", "-delta", "7", "-algo", "delta", "-certify")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if got := solverLines(stdout); len(got) != 1 || got[0] != "delta" {
		t.Fatalf("ran %v, want [delta]", got)
	}
	if strings.Contains(stdout, "component hierarchy:") {
		t.Errorf("delta alone built the hierarchy: %q", stdout)
	}
}
