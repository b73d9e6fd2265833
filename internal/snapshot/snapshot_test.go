package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ch"
	"repro/internal/gen"
	"repro/internal/graph"
)

func buildPair(t *testing.T, g *graph.Graph) (*graph.Graph, *ch.Hierarchy) {
	t.Helper()
	return g, ch.BuildKruskal(g)
}

// A snapshot must survive write → read → write byte-identically: the decoded
// graph and hierarchy are exactly the stored arrays, with nothing re-derived
// differently on the way through.
func TestRoundTripByteIdentical(t *testing.T) {
	for _, g0 := range []*graph.Graph{
		gen.Random(500, 2000, 1<<10, gen.UWD, 7),
		gen.RMATGraph(256, 1024, 4, gen.UWD, 2),
		gen.Path(40, 9),
		func() *graph.Graph { // disconnected: exercises the virtual root
			b := graph.NewBuilder(6)
			b.MustAddEdge(0, 1, 3)
			b.MustAddEdge(2, 3, 5)
			return b.Build()
		}(),
		func() *graph.Graph { // self-loop stored once in CSR
			b := graph.NewBuilder(3)
			b.MustAddEdge(0, 1, 2)
			b.MustAddEdge(2, 2, 9)
			return b.Build()
		}(),
		graph.NewBuilder(1).Build(),
		graph.NewBuilder(0).Build(),
	} {
		g, h := buildPair(t, g0)
		var buf1 bytes.Buffer
		n, err := Write(&buf1, g, h)
		if err != nil {
			t.Fatalf("Write(%v): %v", g, err)
		}
		if int64(buf1.Len()) != n {
			t.Fatalf("Write reported %d bytes, wrote %d", n, buf1.Len())
		}
		g2, h2, err := Read(bytes.NewReader(buf1.Bytes()))
		if err != nil {
			t.Fatalf("Read(%v): %v", g, err)
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("%v: graph fingerprint changed", g)
		}
		if h2.NumNodes() != h.NumNodes() || h2.Root() != h.Root() || h2.MaxLevel() != h.MaxLevel() {
			t.Fatalf("%v: hierarchy structure changed", g)
		}
		var buf2 bytes.Buffer
		if _, err := Write(&buf2, g2, h2); err != nil {
			t.Fatalf("re-Write(%v): %v", g, err)
		}
		if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
			t.Fatalf("%v: snapshot not byte-identical after round trip (%d vs %d bytes)",
				g, buf1.Len(), buf2.Len())
		}
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	g, h := buildPair(t, gen.Random(300, 1200, 256, gen.UWD, 3))
	var buf bytes.Buffer
	if _, err := Write(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   flip(raw, 0),
		"bad version": flip(raw, 8),
		"header only": raw[:20],
	}
	// Truncate at many depths: inside the header, the graph section, the CH
	// section, and just shy of the final checksum.
	for _, cut := range []int{5, 14, 40, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		cases[filepath.Join("truncated", "cut")+string(rune('a'+cut%26))] = raw[:cut]
	}
	// Flip one byte in every region of the file: header fingerprint, graph
	// payload, graph checksum, CH payload, trailing checksum.
	for _, at := range []int{13, 25, 60, len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3, len(raw) - 3} {
		cases["flipped@"+string(rune('a'+at%26))] = flip(raw, at)
	}
	for name, data := range cases {
		if _, _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func flip(b []byte, at int) []byte {
	c := append([]byte(nil), b...)
	c[at] ^= 0x20
	return c
}

// Splicing the CH section of one snapshot onto the graph of another must be
// refused even when the splicer fixes up every framing field — the hierarchy
// payload's stored graph fingerprint is what binds it to its graph.
func TestReadRejectsSplicedSections(t *testing.T) {
	ga, ha := buildPair(t, gen.Random(200, 800, 256, gen.UWD, 1))
	gb, hb := buildPair(t, gen.Random(200, 800, 256, gen.UWD, 2))
	var a, b bytes.Buffer
	if _, err := Write(&a, ga, ha); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(&b, gb, hb); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	chieOffA := le.Uint64(a.Bytes()[64:])
	chieOffB := le.Uint64(b.Bytes()[64:])
	spliced := append([]byte(nil), a.Bytes()[:chieOffA]...)
	spliced = append(spliced, b.Bytes()[chieOffB:]...)
	// A consistent forgery would also rewrite the framing: copy B's chieLen
	// and chieCRC into A's header and recompute the header checksum.
	copy(spliced[72:80], b.Bytes()[72:80])
	copy(spliced[80:88], b.Bytes()[80:88])
	le.PutUint64(spliced[88:], crc64.Checksum(spliced[:88], crcTab))
	if _, _, err := Read(bytes.NewReader(spliced)); err == nil {
		t.Fatal("accepted a snapshot whose CH section belongs to a different graph")
	}

}

// v1Prefix hand-builds the 32-byte header a v1 file started with: magic,
// version 1, n, m, crc. No writer for the format remains.
func v1Prefix(fp graph.Fingerprint) []byte {
	b := append([]byte(nil), magic[:]...)
	le := binary.LittleEndian
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(fp.N))
	b = le.AppendUint64(b, uint64(fp.M))
	return le.AppendUint64(b, fp.CRC)
}

// v1Files is what a v1 header can be followed by: nothing, or anything.
func v1Files() map[string][]byte {
	prefix := v1Prefix(gen.Random(100, 400, 16, gen.UWD, 3).Fingerprint())
	garbage := bytes.Repeat([]byte{0xA5, 'G', 'R', 'P', 'H', 0xFF, 0xFF, 0xFF}, 700)
	return map[string][]byte{
		"prefix only":    prefix,
		"prefix+garbage": append(append([]byte(nil), prefix...), garbage...),
	}
}

// A v1 header must be refused with ErrV1, which names the fix, on the prefix
// alone — whatever follows it. (Map: TestMapRefusesV1.)
func TestReadRefusesV1(t *testing.T) {
	for name, data := range v1Files() {
		if _, err := ReadFingerprint(bytes.NewReader(data)); !errors.Is(err, ErrV1) {
			t.Errorf("%s: ReadFingerprint = %v, want ErrV1", name, err)
		}
		if _, _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrV1) {
			t.Errorf("%s: Read = %v, want ErrV1", name, err)
		}
		path := filepath.Join(t.TempDir(), "v1.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(path); !errors.Is(err, ErrV1) {
			t.Errorf("%s: ReadFile = %v, want ErrV1", name, err)
		}
	}
	if !strings.Contains(ErrV1.Error(), "gengraph -snap") {
		t.Errorf("ErrV1 %q does not name the fix", ErrV1)
	}
}

// Regression: a header vertex count above MaxInt32 used to be narrowed to a
// negative int32 and handed downstream; it must be rejected by every entry
// point, with the header otherwise internally consistent so the rejection is
// provably the overflow check and not a checksum side effect.
func TestRejectsVertexCountOverflow(t *testing.T) {
	g, h := buildPair(t, gen.Random(100, 400, 16, gen.UWD, 9))
	var buf bytes.Buffer
	if _, err := Write(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	le := binary.LittleEndian
	le.PutUint32(raw[12:], 1<<31) // fpN = MaxInt32+1
	le.PutUint64(raw[88:], crc64.Checksum(raw[:88], crcTab))

	if _, err := ReadFingerprint(bytes.NewReader(raw[:32])); err == nil {
		t.Error("ReadFingerprint accepted n > MaxInt32")
	} else if !strings.Contains(err.Error(), "int32") {
		t.Errorf("ReadFingerprint error %q does not name the overflow", err)
	}
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("Read accepted n > MaxInt32")
	}
	path := filepath.Join(t.TempDir(), "overflow.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Map(path); err == nil {
		t.Error("Map accepted n > MaxInt32")
	}

}

func TestWriteFileAtomicAndReadFile(t *testing.T) {
	g, h := buildPair(t, gen.Random(200, 800, 64, gen.UWD, 5))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := WriteFile(path, g, h); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "g.snap" {
		t.Fatalf("snapshot dir should hold exactly g.snap, got %v", entries)
	}
	g2, h2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Fingerprint() != g.Fingerprint() || h2.NumNodes() != h.NumNodes() {
		t.Fatal("ReadFile returned a different instance")
	}
	// The published snapshot must be world-readable, not CreateTemp's 0600.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if perm := fi.Mode().Perm(); perm != 0o644 {
		t.Fatalf("snapshot mode %o, want 644", perm)
	}
	// Unwritable destination: no stray temp files.
	if err := WriteFile(filepath.Join(dir, "missing", "x.snap"), g, h); err == nil {
		t.Fatal("expected error for unwritable directory")
	}
	entries, _ = os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files: %v", entries)
	}
}

// A snapshot whose bytes never reached stable storage must not be renamed
// into place: when fsync fails, WriteFile reports the failure and leaves
// neither the destination nor a stray temp file behind.
func TestWriteFileSyncFailure(t *testing.T) {
	g, h := buildPair(t, gen.Random(100, 400, 64, gen.UWD, 6))
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")

	orig := syncFile
	syncFile = func(f *os.File) error { return errors.New("injected fsync failure") }
	defer func() { syncFile = orig }()

	err := WriteFile(path, g, h)
	if err == nil || !strings.Contains(err.Error(), "injected fsync failure") {
		t.Fatalf("WriteFile = %v, want the injected fsync failure", err)
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left files behind: %v", entries)
	}

	syncFile = orig
	if err := WriteFile(path, g, h); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestReadFingerprintHeaderOnly(t *testing.T) {
	g, h := buildPair(t, gen.Random(100, 400, 16, gen.UWD, 9))
	var buf bytes.Buffer
	if _, err := Write(&buf, g, h); err != nil {
		t.Fatal(err)
	}
	// Only the 32-byte header is needed.
	fp, err := ReadFingerprint(bytes.NewReader(buf.Bytes()[:32]))
	if err != nil {
		t.Fatal(err)
	}
	if fp != g.Fingerprint() {
		t.Fatalf("header fingerprint %v, want %v", fp, g.Fingerprint())
	}
}
