package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"

	"repro/internal/ch"
	"repro/internal/graph"
)

var magic = [8]byte{'S', 'S', 'S', 'P', 'S', 'N', 'A', 'P'}

const (
	// Version is the one snapshot format version written and read.
	Version = 2

	prefixSize     = 32
	headerSize     = 96
	pageAlign      = 4096
	chieHeaderSize = 40

	// maxSectionLen is a plausibility cap on declared payload lengths, so
	// the geometry arithmetic cannot overflow. Nothing is allocated from a
	// declared length: every reader holds the whole file before decoding.
	maxSectionLen = 1 << 40
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// ErrV1 is returned by every entry point (Read, ReadFile, Map) for a file
// whose header declares the removed v1 stream format, on the strength of the
// 32-byte prefix alone.
var ErrV1 = errors.New("snapshot: format v1 is no longer supported; regenerate with gengraph -snap")

// v2Header is the decoded fixed-size v2 file header. The graph section's
// payload is exactly the byte string the graph fingerprint hashes (offsets,
// targets, weights, little-endian), so fp.CRC doubles as that section's
// checksum and no separate field is stored for it.
type v2Header struct {
	fp         graph.Fingerprint
	arcs       uint64
	minW, maxW uint32
	grphOff    uint64
	grphLen    uint64
	chieOff    uint64
	chieLen    uint64
	chieCRC    uint64
	headerCRC  uint64
}

func (hd *v2Header) encode() [headerSize]byte {
	var b [headerSize]byte
	le := binary.LittleEndian
	copy(b[0:], magic[:])
	le.PutUint32(b[8:], Version)
	le.PutUint32(b[12:], uint32(hd.fp.N))
	le.PutUint64(b[16:], uint64(hd.fp.M))
	le.PutUint64(b[24:], hd.fp.CRC)
	le.PutUint64(b[32:], hd.arcs)
	le.PutUint32(b[40:], hd.minW)
	le.PutUint32(b[44:], hd.maxW)
	le.PutUint64(b[48:], hd.grphOff)
	le.PutUint64(b[56:], hd.grphLen)
	le.PutUint64(b[64:], hd.chieOff)
	le.PutUint64(b[72:], hd.chieLen)
	le.PutUint64(b[80:], hd.chieCRC)
	hd.headerCRC = crc64.Checksum(b[:88], crcTab)
	le.PutUint64(b[88:], hd.headerCRC)
	return b
}

func decodeV2Header(b []byte) (*v2Header, error) {
	le := binary.LittleEndian
	stored := le.Uint64(b[88:])
	if sum := crc64.Checksum(b[:88], crcTab); sum != stored {
		return nil, errors.New("snapshot: header checksum mismatch (corrupted file)")
	}
	fp, err := decodePrefix(b[:prefixSize])
	if err != nil {
		return nil, err
	}
	return &v2Header{
		fp:        fp,
		arcs:      le.Uint64(b[32:]),
		minW:      le.Uint32(b[40:]),
		maxW:      le.Uint32(b[44:]),
		grphOff:   le.Uint64(b[48:]),
		grphLen:   le.Uint64(b[56:]),
		chieOff:   le.Uint64(b[64:]),
		chieLen:   le.Uint64(b[72:]),
		chieCRC:   le.Uint64(b[80:]),
		headerCRC: stored,
	}, nil
}

// validateGeometry checks that the header's offsets and lengths are mutually
// consistent, implied by n and arcs, and match the file size exactly. Every
// downstream slice bound derives from fields proved here, so a hostile header
// cannot drive a past-the-file read.
func (hd *v2Header) validateGeometry(fileSize uint64) error {
	if hd.grphOff != pageAlign {
		return fmt.Errorf("snapshot: graph section offset %d, want %d", hd.grphOff, pageAlign)
	}
	if hd.arcs > maxSectionLen/8 {
		return fmt.Errorf("snapshot: header declares implausible arc count %d", hd.arcs)
	}
	wantGrph := (uint64(hd.fp.N)+1)*8 + hd.arcs*8
	if hd.grphLen != wantGrph {
		return fmt.Errorf("snapshot: graph section length %d does not match n=%d arcs=%d (want %d)",
			hd.grphLen, hd.fp.N, hd.arcs, wantGrph)
	}
	if hd.chieOff != hd.grphOff+hd.grphLen {
		return fmt.Errorf("snapshot: hierarchy section offset %d, want %d", hd.chieOff, hd.grphOff+hd.grphLen)
	}
	if hd.chieLen < chieHeaderSize || hd.chieLen > maxSectionLen {
		return fmt.Errorf("snapshot: implausible hierarchy section length %d", hd.chieLen)
	}
	if fileSize != hd.chieOff+hd.chieLen {
		return fmt.Errorf("snapshot: file size %d does not match declared sections (want %d)",
			fileSize, hd.chieOff+hd.chieLen)
	}
	return nil
}

// Write serialises g and its hierarchy h to w in format v2. h must have been
// built for g. The output is deterministic for a given (g, h).
func Write(w io.Writer, g *graph.Graph, h *ch.Hierarchy) (int64, error) {
	if h.Graph() != g {
		return 0, errors.New("snapshot: hierarchy was built for a different graph value")
	}
	fp := g.Fingerprint()
	offsets, targets, weights := g.AdjOffsets(), g.Targets(), g.Weights()
	raw := h.Raw()

	hd := v2Header{
		fp:      fp,
		arcs:    uint64(len(targets)),
		minW:    g.MinWeight(),
		maxW:    g.MaxWeight(),
		grphOff: pageAlign,
	}
	hd.grphLen = uint64(len(offsets))*8 + uint64(len(targets))*4 + uint64(len(weights))*4
	hd.chieOff = hd.grphOff + hd.grphLen

	chie := encodeChie(raw, g.NumVertices(), fp)
	hd.chieLen = uint64(len(chie))
	hd.chieCRC = crc64.Checksum(chie, crcTab)
	hdr := hd.encode()

	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<20)
	fail := func(stage string, err error) (int64, error) {
		bw.Flush()
		return cw.n, fmt.Errorf("snapshot: write %s: %w", stage, err)
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return fail("header", err)
	}
	var zeros [pageAlign - headerSize]byte
	if _, err := bw.Write(zeros[:]); err != nil {
		return fail("padding", err)
	}
	for _, v := range []any{offsets, targets, weights} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fail("graph section", err)
		}
	}
	if _, err := bw.Write(chie); err != nil {
		return fail("ch section", err)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("snapshot: flush: %w", err)
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// encodeChie serialises the hierarchy's flat arrays behind a 40-byte header
// carrying the owning graph's fingerprint, which binds the section to its
// graph (a CH spliced in from another snapshot is refused on that mismatch).
func encodeChie(r ch.Raw, leaves int, fp graph.Fingerprint) []byte {
	nodes := len(r.Level)
	size := chieHeaderSize + 4*(3*nodes+len(r.ChildStart)+len(r.Children))
	b := make([]byte, 0, size)
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(nodes))
	b = le.AppendUint32(b, uint32(leaves))
	b = le.AppendUint32(b, uint32(r.Root))
	b = le.AppendUint32(b, uint32(r.MaxLevel))
	var virt uint32
	if r.VirtualRoot {
		virt = 1
	}
	b = le.AppendUint32(b, virt)
	b = le.AppendUint32(b, uint32(len(r.Children)))
	b = le.AppendUint64(b, uint64(fp.M))
	b = le.AppendUint64(b, fp.CRC)
	for _, arr := range [][]int32{r.Level, r.Parent, r.VertexCount, r.ChildStart, r.Children} {
		for _, v := range arr {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	return b
}

// decodePrefix parses the 32-byte header prefix: magic, version, and the
// graph fingerprint. The prefix is decoded on its own, ahead of the rest of
// the header, so that a v1 file — whose header ends here — is refused with
// ErrV1 rather than as a short or corrupt v2 header. A vertex count above
// MaxInt32 is rejected here — narrowing it silently used to hand negative
// vertex counts to everything downstream.
func decodePrefix(b []byte) (graph.Fingerprint, error) {
	le := binary.LittleEndian
	var m [8]byte
	copy(m[:], b[:8])
	if m != magic {
		return graph.Fingerprint{}, errors.New("snapshot: not a snapshot file (bad magic)")
	}
	switch version := le.Uint32(b[8:]); version {
	case Version:
	case 1:
		return graph.Fingerprint{}, ErrV1
	default:
		return graph.Fingerprint{}, fmt.Errorf("snapshot: unsupported version %d (want %d)", version, Version)
	}
	n := le.Uint32(b[12:])
	if n > math.MaxInt32 {
		return graph.Fingerprint{}, fmt.Errorf("snapshot: header vertex count %d exceeds int32 (corrupt header)", n)
	}
	fm := le.Uint64(b[16:])
	if fm > math.MaxInt64 {
		return graph.Fingerprint{}, fmt.Errorf("snapshot: header edge count %d exceeds int64 (corrupt header)", fm)
	}
	return graph.Fingerprint{N: int32(n), M: int64(fm), CRC: le.Uint64(b[24:])}, nil
}

// decode is the one snapshot decoder behind Map, ReadFile and Read: data is a
// whole file, starting at an 8-byte-aligned address, and the returned graph
// and hierarchy arrays alias it. trusted reports whether a header CRC belongs
// to bytes that already passed full verification (nil: never); an untrusted
// file has its padding, both section checksums, the O(n+m) CSR scan and the
// hierarchy's structural checks verified before anything is built. swap
// byte-swaps the verified arrays in place to host order (big-endian hosts;
// data must then be the caller's own buffer). The header CRC is returned for
// the caller's verification registry.
func decode(data []byte, trusted func(headerCRC uint64) bool, swap bool) (*graph.Graph, *ch.Hierarchy, uint64, error) {
	// The prefix is judged before the size: a v1 file can be shorter than a
	// v2 header and must still get ErrV1.
	if len(data) >= prefixSize {
		if _, err := decodePrefix(data[:prefixSize]); err != nil {
			return nil, nil, 0, err
		}
	}
	if len(data) < headerSize {
		return nil, nil, 0, fmt.Errorf("snapshot: file too small to be a snapshot (%d bytes)", len(data))
	}
	hd, err := decodeV2Header(data[:headerSize])
	if err != nil {
		return nil, nil, 0, err
	}
	if err := hd.validateGeometry(uint64(len(data))); err != nil {
		return nil, nil, 0, err
	}
	deep := trusted == nil || !trusted(hd.headerCRC)
	grph := data[hd.grphOff:hd.chieOff]
	chie := data[hd.chieOff:]
	if deep {
		for _, b := range data[headerSize:hd.grphOff] {
			if b != 0 {
				return nil, nil, 0, errors.New("snapshot: nonzero byte in header padding (corrupted file)")
			}
		}
		if crc64.Checksum(grph, crcTab) != hd.fp.CRC {
			return nil, nil, 0, errors.New("snapshot: graph section checksum mismatch (corrupted file)")
		}
		if crc64.Checksum(chie, crcTab) != hd.chieCRC {
			return nil, nil, 0, errors.New("snapshot: hierarchy section checksum mismatch (corrupted file)")
		}
	}

	// validateGeometry proved the section holds exactly these lengths;
	// grphOff is page-aligned and each array's byte offset is a multiple of
	// its element size, so the views are correctly aligned.
	n := int(hd.fp.N)
	arcs := int(hd.arcs)
	if swap {
		swapToHost(grph[:(n+1)*8], 8)
		swapToHost(grph[(n+1)*8:], 4)
		swapToHost(chie[chieHeaderSize:], 4)
	}
	offsets := i64view(grph, n+1)
	targets := i32view(grph[(n+1)*8:], arcs)
	weights := u32view(grph[(n+1)*8+arcs*4:], arcs)
	var g *graph.Graph
	if deep {
		g, err = graph.FromCSRWithFingerprint(offsets, targets, weights, hd.fp)
		if err == nil && (g.MinWeight() != hd.minW || g.MaxWeight() != hd.maxW) {
			err = fmt.Errorf("header weight range [%d,%d] does not match arrays [%d,%d]",
				hd.minW, hd.maxW, g.MinWeight(), g.MaxWeight())
		}
	} else {
		g, err = graph.FromCSRTrusted(offsets, targets, weights, hd.fp, hd.minW, hd.maxW)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	h, err := decodeChieView(chie, g, deep)
	if err != nil {
		return nil, nil, 0, err
	}
	return g, h, hd.headerCRC, nil
}

// chieHeader is the decoded fixed part of the hierarchy section.
type chieHeader struct {
	nodes, leaves, childLen int
	root, maxLevel          int32
	virtualRoot             bool
}

// parseChieHeader decodes and validates the hierarchy section header against
// the already-decoded graph: the stored leaf count and graph fingerprint must
// match (refusing spliced sections), and the stored array lengths must
// account for the payload exactly.
func parseChieHeader(payload []byte, g *graph.Graph) (chieHeader, error) {
	var hd chieHeader
	if len(payload) < chieHeaderSize {
		return hd, fmt.Errorf("snapshot: hierarchy section too short (%d bytes)", len(payload))
	}
	le := binary.LittleEndian
	nodes := int64(le.Uint32(payload))
	leaves := int64(le.Uint32(payload[4:]))
	root := int32(le.Uint32(payload[8:]))
	maxLevel := int32(le.Uint32(payload[12:]))
	virt := le.Uint32(payload[16:])
	childLen := int64(le.Uint32(payload[20:]))
	fpM := le.Uint64(payload[24:])
	fpCRC := le.Uint64(payload[32:])

	if leaves != int64(g.NumVertices()) {
		return hd, fmt.Errorf("snapshot: hierarchy stores %d leaves, graph has %d vertices", leaves, g.NumVertices())
	}
	fp := g.Fingerprint()
	if fpM != uint64(fp.M) || fpCRC != fp.CRC {
		return hd, errors.New("snapshot: hierarchy section belongs to a different graph (fingerprint mismatch)")
	}
	if nodes < leaves {
		return hd, fmt.Errorf("snapshot: hierarchy stores %d nodes for %d leaves", nodes, leaves)
	}
	if virt > 1 {
		return hd, fmt.Errorf("snapshot: hierarchy virtual-root flag %d", virt)
	}
	want := int64(chieHeaderSize) + 4*(3*nodes+(nodes-leaves+1)+childLen)
	if want != int64(len(payload)) {
		return hd, fmt.Errorf("snapshot: hierarchy section length %d does not match nodes=%d children=%d (want %d)",
			len(payload), nodes, childLen, want)
	}
	return chieHeader{
		nodes: int(nodes), leaves: int(leaves), childLen: int(childLen),
		root: root, maxLevel: maxLevel, virtualRoot: virt == 1,
	}, nil
}

// swapToHost reverses every size-byte word of b in place: the little-endian
// file arrays become big-endian host words. The section headers are decoded
// byte-wise and are not swapped.
func swapToHost(b []byte, size int) {
	for i := 0; i+size <= len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}

// Read decodes a snapshot from a stream. The whole stream is read into one
// 8-byte-aligned heap buffer before it is judged, then decoded exactly as a
// mapped file — every check Map makes on a first mapping — with the arrays
// aliasing the buffer, which the returned graph and hierarchy keep alive.
func Read(r io.Reader) (*graph.Graph, *ch.Hierarchy, error) {
	return readAll(r, 0)
}

// ReadFile loads a snapshot from disk into one heap buffer (the copy path;
// see Map for zero-copy). The platform and byte order do not matter here.
func ReadFile(path string) (*graph.Graph, *ch.Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil && fi.Size() == int64(int(fi.Size())) {
		size = int(fi.Size())
	}
	return readAll(f, size)
}

// readAll reads r to EOF into a buffer allocated as []uint64 — so the
// decoder's views are aligned as over a page-aligned mapping — and decodes
// it. size is the expected length: one allocation holds a stream of that
// size, and a longer one grows the buffer by doubling. A buffer is only ever
// as large as the bytes that actually arrived (times two), so a lying header
// cannot drive an allocation.
func readAll(r io.Reader, size int) (*graph.Graph, *ch.Hierarchy, error) {
	buf := alignedBuf(max(size+1, 4096))[:0]
	for {
		if len(buf) == cap(buf) {
			grown := alignedBuf(2 * cap(buf))
			copy(grown, buf)
			buf = grown[:len(buf)]
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot: read: %w", err)
		}
	}
	g, h, _, err := decode(buf, nil, !isLittleEndian)
	return g, h, err
}

// alignedBuf returns n bytes backed by a []uint64.
func alignedBuf(n int) []byte {
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), n)
}

// syncFile flushes a snapshot to stable storage before it is renamed into
// place; a package variable so durability tests can inject failures.
var syncFile = func(f *os.File) error { return f.Sync() }

// WriteFile persists a snapshot atomically and durably: serialise to a temp
// file in the destination directory, fsync it, chmod to a normal read mode,
// rename into place, then fsync the directory so the rename itself survives
// a crash. A failure at any step leaves the previous snapshot (or nothing),
// never a truncated artifact.
func WriteFile(path string, g *graph.Graph, h *ch.Hierarchy) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := Write(f, g, h); err != nil {
		return fail(err)
	}
	if err := syncFile(f); err != nil {
		return fail(fmt.Errorf("snapshot: sync %s: %w", tmp, err))
	}
	// CreateTemp's 0600 would otherwise ship with the published snapshot,
	// hiding it from backup jobs or a daemon running under another uid.
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync directory %s: %w", dir, err)
	}
	return nil
}
