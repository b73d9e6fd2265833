package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dimacs"
	"repro/internal/gen"
	"repro/internal/snapshot"
)

// -in with -snap is the text-to-snapshot converter: the snapshot must hold
// the parsed graph and a valid hierarchy through both read paths, write no
// text, ignore the generator flags, and be reproducible byte for byte.
func TestConvertDIMACSToSnapshot(t *testing.T) {
	dir := t.TempDir()
	gr := filepath.Join(dir, "city.gr")
	var text bytes.Buffer
	if err := dimacs.WriteGraph(&text, gen.Random(300, 1200, 1<<10, gen.UWD, 7), "test"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gr, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := dimacs.ReadGraph(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := parsed.Fingerprint()

	snap := filepath.Join(dir, "city.snap")
	var stdout bytes.Buffer
	// The generator flags describe a different graph; -in must win.
	if err := run([]string{"-in", gr, "-snap", snap, "-class", "grid", "-logn", "4"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-snap alone wrote %d bytes of text to stdout", stdout.Len())
	}

	g, h, err := snapshot.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != want {
		t.Fatalf("ReadFile: fingerprint %v, want %v", g.Fingerprint(), want)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	mg, mh, m, err := snapshot.Map(snap)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer m.Close()
	if mg.Fingerprint() != want {
		t.Fatalf("Map: fingerprint %v, want %v", mg.Fingerprint(), want)
	}
	if err := mh.Validate(); err != nil {
		t.Fatalf("Map: %v", err)
	}

	again := filepath.Join(dir, "again.snap")
	if err := run([]string{"-in", gr, "-snap", again}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two conversions of the same input differ")
	}
}

// The "wrote" line names where text went — the -o file or stdout — and is
// absent when none was written; the snapshot line is printed either way.
func TestWroteLineNamesWhereTextWent(t *testing.T) {
	dir := t.TempDir()
	gr := filepath.Join(dir, "g.gr")
	for _, tc := range []struct {
		name  string
		args  []string
		wrote string // "" when no text may be reported
		snap  bool
	}{
		{"to a file", []string{"-logn", "4", "-o", gr}, "to " + gr + ":", false},
		{"to stdout", []string{"-logn", "4"}, "to stdout:", false},
		{"snapshot only", []string{"-logn", "4", "-snap", filepath.Join(dir, "a.snap")}, "", true},
		{"converted", []string{"-in", gr, "-snap", filepath.Join(dir, "b.snap")}, "", true},
		{"both", []string{"-logn", "4", "-o", filepath.Join(dir, "c.gr"), "-snap", filepath.Join(dir, "c.snap")}, "to " + filepath.Join(dir, "c.gr") + ":", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if err := run(tc.args, io.Discard, &stderr); err != nil {
				t.Fatal(err)
			}
			log := stderr.String()
			if got := strings.Contains(log, "gengraph: wrote "); got != (tc.wrote != "") || !strings.Contains(log, tc.wrote) {
				t.Fatalf("stderr %q, want a wrote line %q", log, tc.wrote)
			}
			if strings.Contains(log, "gengraph: snapshot ") != tc.snap {
				t.Fatalf("stderr %q: snapshot line present %v, want %v", log, !tc.snap, tc.snap)
			}
		})
	}
}
