package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/ch"
	"repro/internal/gen"
)

// FuzzSnapshotRead feeds arbitrary bytes through both decode paths — the
// copy reader and the mmap reader. The invariants under fuzzing: never
// panic, never allocate from a declared length beyond the bytes actually
// present (the chunked reads in readCapped), and anything accepted must come
// back as a coherent instance that re-serializes.
func FuzzSnapshotRead(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		g, h, err := Read(bytes.NewReader(data))
		if err == nil {
			if g == nil || h == nil || h.Graph() != g {
				t.Fatal("Read returned an incoherent instance without error")
			}
			var buf bytes.Buffer
			if _, err := Write(&buf, g, h); err != nil {
				t.Fatalf("accepted instance fails to re-serialize: %v", err)
			}
		}
		if !mmapSupported || !isLittleEndian {
			return
		}
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mg, mh, m, err := Map(path)
		if err == nil {
			if mg == nil || mh == nil || mh.Graph() != mg {
				t.Fatal("Map returned an incoherent instance without error")
			}
			_ = mg.Fingerprint()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// fuzzSeeds builds the structured starting points: valid files, a v1 header
// prefix with a tail (refused with ErrV1), their truncations, and degenerate
// prefixes. The committed corpus under testdata/fuzz/FuzzSnapshotRead was
// generated from this list (see TestSeedFuzzCorpus) while it still held
// complete v1 files, which stay there as rejection seeds; plain `go test`
// replays it even without -fuzz.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, append([]byte(nil), b...)) }
	for _, s := range []uint64{1, 2} {
		g := gen.Random(60, 200, 32, gen.UWD, s)
		h := ch.BuildKruskal(g)
		var v2 bytes.Buffer
		if _, err := Write(&v2, g, h); err != nil {
			panic(err)
		}
		v1 := append(v1Prefix(g.Fingerprint()), v2.Bytes()[pageAlign:]...)
		add(v2.Bytes())
		add(v1)
		add(v2.Bytes()[:headerSize])
		add(v2.Bytes()[:v2.Len()/2])
		add(v1[:prefixSize/2])
	}
	add(nil)
	add(magic[:])
	return seeds
}

// TestSeedFuzzCorpus regenerates the committed seed corpus. Run with
// SNAPSHOT_WRITE_CORPUS=1 after a format change; otherwise it only checks
// the corpus directory exists.
func TestSeedFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRead")
	if os.Getenv("SNAPSHOT_WRITE_CORPUS") == "" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("seed corpus missing (regenerate with SNAPSHOT_WRITE_CORPUS=1): %v", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeeds() {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := fmt.Sprintf("seed-%02d", i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
