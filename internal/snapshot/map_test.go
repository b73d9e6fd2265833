package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/graph"
)

func requireMmap(t *testing.T) {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform")
	}
	if !isLittleEndian {
		t.Skip("big-endian host cannot alias snapshot bytes")
	}
}

func writeSnap(t *testing.T, dir, name string, g *graph.Graph, h *ch.Hierarchy) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := WriteFile(path, g, h); err != nil {
		t.Fatal(err)
	}
	return path
}

// A mapped snapshot must be indistinguishable from a copy-read one: same
// graph arrays, same hierarchy structure, identical bytes when re-written.
func TestMapRoundTrip(t *testing.T) {
	requireMmap(t)
	for i, g0 := range []*graph.Graph{
		gen.Random(500, 2000, 1<<10, gen.UWD, 7),
		gen.Path(40, 9),
		func() *graph.Graph { // disconnected: exercises the virtual root
			b := graph.NewBuilder(6)
			b.MustAddEdge(0, 1, 3)
			b.MustAddEdge(2, 3, 5)
			return b.Build()
		}(),
		graph.NewBuilder(1).Build(),
		graph.NewBuilder(0).Build(),
	} {
		g, h := buildPair(t, g0)
		path := writeSnap(t, t.TempDir(), "g.snap", g, h)

		mg, mh, m, err := Map(path)
		if err != nil {
			t.Fatalf("case %d: Map: %v", i, err)
		}
		if mg.Fingerprint() != g.Fingerprint() {
			t.Fatalf("case %d: mapped graph fingerprint changed", i)
		}
		if mg.NumVertices() != g.NumVertices() || mg.NumEdges() != g.NumEdges() ||
			mg.MinWeight() != g.MinWeight() || mg.MaxWeight() != g.MaxWeight() {
			t.Fatalf("case %d: mapped graph shape changed", i)
		}
		if mh.NumNodes() != h.NumNodes() || mh.Root() != h.Root() ||
			mh.MaxLevel() != h.MaxLevel() || mh.HasVirtualRoot() != h.HasVirtualRoot() {
			t.Fatalf("case %d: mapped hierarchy structure changed", i)
		}
		mr, hr := mh.Raw(), h.Raw()
		for j := range hr.Level {
			if mr.Level[j] != hr.Level[j] || mr.Parent[j] != hr.Parent[j] {
				t.Fatalf("case %d: mapped hierarchy arrays differ at node %d", i, j)
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if m.Bytes() != fi.Size() {
			t.Fatalf("case %d: Mapping.Bytes() = %d, file is %d", i, m.Bytes(), fi.Size())
		}

		// Second Map of the unchanged file takes the memoized shallow path
		// and must return the same instance; double Close is harmless.
		mg2, _, m2, err := Map(path)
		if err != nil {
			t.Fatalf("case %d: re-Map: %v", i, err)
		}
		if mg2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("case %d: re-mapped graph fingerprint changed", i)
		}
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("case %d: second Close: %v", i, err)
		}
	}
}

// Map must refuse a v1 file with ErrV1 and not ErrNotMappable: the copy-read
// fallback that error sends callers to can no longer succeed.
func TestMapRefusesV1(t *testing.T) {
	requireMmap(t)
	for name, data := range v1Files() {
		path := filepath.Join(t.TempDir(), "v1.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Map(path); !errors.Is(err, ErrV1) || errors.Is(err, ErrNotMappable) {
			t.Errorf("%s: Map = %v, want ErrV1 and not ErrNotMappable", name, err)
		}
	}
}

// First-Map verification must reject corruption anywhere in the file. Each
// corrupt copy is a fresh file (new inode), so the verification registry
// never short-circuits these checks.
func TestMapRejectsCorruption(t *testing.T) {
	requireMmap(t)
	g, h := buildPair(t, gen.Random(300, 1200, 256, gen.UWD, 3))
	dir := t.TempDir()
	path := writeSnap(t, dir, "g.snap", g, h)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]int{
		"header fpN":     13,
		"header fpCRC":   25,
		"header grphLen": 60,
		"padding":        headerSize + 10,
		"graph payload":  pageAlign + 100,
		"chie payload":   len(raw) - 3,
	}
	i := 0
	for name, at := range cases {
		i++
		p := filepath.Join(dir, "corrupt"+string(rune('a'+i))+".snap")
		if err := os.WriteFile(p, flip(raw, at), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Map(p); err == nil {
			t.Errorf("%s: Map accepted the corruption", name)
		}
	}
	// Truncation changes the size out from under the declared geometry.
	p := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(p, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Map(p); err == nil {
		t.Error("Map accepted a truncated file")
	}
}

// Rewriting a file invalidates its verification-registry entry: the replaced
// bytes get the full check, not the memoized shallow path.
func TestMapReverifiesReplacedFile(t *testing.T) {
	requireMmap(t)
	ga, ha := buildPair(t, gen.Random(200, 800, 64, gen.UWD, 1))
	gb, hb := buildPair(t, gen.Random(250, 900, 64, gen.UWD, 2))
	dir := t.TempDir()
	path := writeSnap(t, dir, "g.snap", ga, ha)

	_, _, m, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Atomic replace, as the catalog's snapshot refresh does.
	if err := WriteFile(path, gb, hb); err != nil {
		t.Fatal(err)
	}
	mg, _, m2, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if mg.Fingerprint() != gb.Fingerprint() {
		t.Fatal("Map served stale identity for a replaced file")
	}
}
