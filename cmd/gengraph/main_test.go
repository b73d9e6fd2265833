package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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
