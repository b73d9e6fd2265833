package snapshot

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"unsafe"

	"repro/internal/ch"
	"repro/internal/graph"
)

// ErrNotMappable reports that a snapshot cannot be served zero-copy — the
// platform has no mmap, or the host byte order rules out aliasing the
// little-endian file bytes. Callers detect it with errors.Is and fall back to
// the copy path (ReadFile).
var ErrNotMappable = errors.New("snapshot: not mappable")

var isLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Mapping owns the mmap'd bytes backing a graph and hierarchy returned by
// Map. The arrays alias the mapping, so it must stay open for as long as
// either is in use; Close unmaps (idempotent, nil-safe). In the serving
// stack a catalog generation owns its mapping and closes it only after the
// last in-flight query releases the generation.
type Mapping struct {
	data      []byte
	size      int64
	path      string
	closeOnce sync.Once
	closeErr  error
}

// Bytes returns the mapped length in bytes (the whole snapshot file).
func (m *Mapping) Bytes() int64 {
	if m == nil {
		return 0
	}
	return m.size
}

// Path returns the file the mapping was created from.
func (m *Mapping) Path() string {
	if m == nil {
		return ""
	}
	return m.path
}

// Close unmaps the file. The graph and hierarchy returned alongside the
// mapping must not be used afterwards.
func (m *Mapping) Close() error {
	if m == nil {
		return nil
	}
	m.closeOnce.Do(func() {
		if m.data != nil {
			m.closeErr = munmap(m.data)
			m.data = nil
		}
	})
	return m.closeErr
}

// vkey identifies a verified file: same device, inode, size, and mtime means
// the same bytes that previously passed full verification. WriteFile always
// renames a fresh temp file into place, so a legitimately replaced snapshot
// changes inode and misses this cache.
type vkey struct {
	dev, ino        uint64
	size, mtimeNano int64
}

var (
	verifiedMu sync.Mutex
	verified   = make(map[vkey]uint64) // vkey -> headerCRC seen at verification
)

const verifiedCap = 256

func verifiedLookup(k vkey) (uint64, bool) {
	verifiedMu.Lock()
	defer verifiedMu.Unlock()
	crc, ok := verified[k]
	return crc, ok
}

func verifiedStore(k vkey, crc uint64) {
	verifiedMu.Lock()
	defer verifiedMu.Unlock()
	if _, ok := verified[k]; !ok && len(verified) >= verifiedCap {
		for old := range verified {
			delete(verified, old)
			break
		}
	}
	verified[k] = crc
}

// Map opens a snapshot zero-copy: the file is mmap'd and the returned
// graph and hierarchy arrays alias the mapping directly, so load cost is a
// page mapping plus validation instead of a read of the whole file, and the
// arrays are backed by page cache rather than heap. Map and ReadFile share
// one decoder, so they accept exactly the same files.
//
// The first Map of a given file pays full verification: header checksum and
// geometry, padding, both section CRCs, the O(n+m) CSR validation scan, and
// the hierarchy's structural checks. A successful verification is recorded
// against the file's identity (device, inode, size, mtime) in a registry
// that lives as long as the process, so re-mapping the same unchanged file
// within one process — a catalog reload, or an evicted graph loaded again —
// is O(1) validation on top of the mmap. Nothing persists it: every process
// start verifies the file in full again.
//
// Hosts the zero-copy path cannot serve (platforms without mmap, big-endian
// byte order) fail with an error matching ErrNotMappable; callers then fall
// back to ReadFile. On success the caller owns the
// returned Mapping and must keep it open while the graph or hierarchy is in
// use.
func Map(path string) (*graph.Graph, *ch.Hierarchy, *Mapping, error) {
	if !mmapSupported {
		return nil, nil, nil, fmt.Errorf("%w: platform has no mmap support", ErrNotMappable)
	}
	if !isLittleEndian {
		return nil, nil, nil, fmt.Errorf("%w: big-endian host cannot alias little-endian file bytes", ErrNotMappable)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	// The mapping survives the descriptor; close it on every path.
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nil, err
	}
	size := fi.Size()
	if size != int64(int(size)) {
		return nil, nil, nil, fmt.Errorf("%w: file size %d exceeds address space", ErrNotMappable, size)
	}
	// An empty file cannot be mapped, but it is a malformed snapshot, not an
	// unmappable one: decode refuses it.
	var data []byte
	if size > 0 {
		if data, err = mmapFile(f, size); err != nil {
			return nil, nil, nil, fmt.Errorf("%w: mmap %s: %v", ErrNotMappable, path, err)
		}
	}
	key, keyOK := fileID(fi)
	trusted := func(headerCRC uint64) bool {
		crc, ok := verifiedLookup(key)
		return keyOK && ok && crc == headerCRC
	}
	g, h, headerCRC, err := decode(data, trusted, false)
	if err != nil {
		munmap(data)
		return nil, nil, nil, err
	}
	if keyOK {
		verifiedStore(key, headerCRC)
	}
	return g, h, &Mapping{data: data, size: size, path: path}, nil
}

// decodeChieView reconstructs the hierarchy with arrays aliasing the
// section's bytes.
func decodeChieView(payload []byte, g *graph.Graph, deep bool) (*ch.Hierarchy, error) {
	hd, err := parseChieHeader(payload, g)
	if err != nil {
		return nil, err
	}
	b := payload[chieHeaderSize:]
	nodes := hd.nodes
	cs := nodes - hd.leaves + 1
	h, err := ch.FromRaw(g, ch.Raw{
		Level:       i32view(b, nodes),
		Parent:      i32view(b[nodes*4:], nodes),
		VertexCount: i32view(b[nodes*8:], nodes),
		ChildStart:  i32view(b[nodes*12:], cs),
		Children:    i32view(b[nodes*12+cs*4:], hd.childLen),
		Root:        hd.root, MaxLevel: hd.maxLevel, VirtualRoot: hd.virtualRoot,
	}, deep)
	if err != nil {
		return nil, fmt.Errorf("snapshot: hierarchy section: %w", err)
	}
	return h, nil
}

// The view helpers reinterpret file bytes as typed slices. Callers
// guarantee b starts at an offset aligned for the element type and holds at
// least n elements; n == 0 returns nil because &b[0] on an empty tail slice
// would panic.

func i64view(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
}

func i32view(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

func u32view(b []byte, n int) []uint32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
