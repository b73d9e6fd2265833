package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

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

	// maxSectionLen is a plausibility cap on declared payload lengths. The
	// binding bound on allocation is the remaining file size when the total
	// is known, and chunked reading when it is not (readCapped).
	maxSectionLen = 1 << 40
)

var crcTab = crc64.MakeTable(crc64.ECMA)

// ErrV1 is returned by every entry point (Read, ReadFile, Map,
// ReadFingerprint) for a file whose header declares the removed v1 stream
// format, before any section is read or allocated.
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
// consistent, implied by n and arcs, and (when the file size is known) match
// the file exactly. Every downstream slice bound derives from fields proved
// here, so a hostile header cannot drive a large allocation or a
// past-the-mapping read.
func (hd *v2Header) validateGeometry(fileSize int64) error {
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
	if fileSize >= 0 && uint64(fileSize) != hd.chieOff+hd.chieLen {
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

// ReadFingerprint decodes only the header prefix, identifying the stored
// instance without loading the arrays.
func ReadFingerprint(r io.Reader) (graph.Fingerprint, error) {
	var prefix [prefixSize]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return graph.Fingerprint{}, fmt.Errorf("snapshot: read header: %w", err)
	}
	return decodePrefix(prefix[:])
}

// Read decodes a snapshot into freshly allocated arrays. Both section
// checksums are verified before any structure is built, the header
// fingerprint's counts must match the decoded arrays, and the hierarchy is
// validated against the decoded graph — so a corrupted or truncated file, or
// sections spliced from two different snapshots, is refused rather than
// served. For mapped, zero-copy loading use Map instead.
func Read(r io.Reader) (*graph.Graph, *ch.Hierarchy, error) {
	return readWithSize(r, -1)
}

func readWithSize(r io.Reader, fileSize int64) (*graph.Graph, *ch.Hierarchy, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hbuf [headerSize]byte
	if _, err := io.ReadFull(br, hbuf[:prefixSize]); err != nil {
		return nil, nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if _, err := decodePrefix(hbuf[:prefixSize]); err != nil {
		return nil, nil, err
	}
	if _, err := io.ReadFull(br, hbuf[prefixSize:]); err != nil {
		return nil, nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	hd, err := decodeV2Header(hbuf[:])
	if err != nil {
		return nil, nil, err
	}
	if err := hd.validateGeometry(fileSize); err != nil {
		return nil, nil, err
	}
	if err := readZeros(br, int64(hd.grphOff)-headerSize); err != nil {
		return nil, nil, err
	}

	rem := int64(-1)
	if fileSize >= 0 {
		rem = fileSize - int64(hd.grphOff)
	}
	gp, err := readCapped(br, hd.grphLen, rem, "graph")
	if err != nil {
		return nil, nil, err
	}
	if crc64.Checksum(gp, crcTab) != hd.fp.CRC {
		return nil, nil, errors.New("snapshot: graph section checksum mismatch (corrupted file)")
	}
	g, err := decodeGraphV2(gp, hd)
	if err != nil {
		return nil, nil, err
	}

	if rem >= 0 {
		rem -= int64(hd.grphLen)
	}
	cp, err := readCapped(br, hd.chieLen, rem, "hierarchy")
	if err != nil {
		return nil, nil, err
	}
	if crc64.Checksum(cp, crcTab) != hd.chieCRC {
		return nil, nil, errors.New("snapshot: hierarchy section checksum mismatch (corrupted file)")
	}
	h, err := decodeChie(cp, g, true)
	if err != nil {
		return nil, nil, err
	}
	return g, h, nil
}

// decodeGraphV2 copies the verified graph payload into fresh CSR arrays. The
// payload length was already proved equal to (n+1)*8 + arcs*8 by
// validateGeometry, so the allocations below are bounded by bytes actually
// read from the file.
func decodeGraphV2(payload []byte, hd *v2Header) (*graph.Graph, error) {
	offsets := make([]int64, int(hd.fp.N)+1)
	targets := make([]int32, hd.arcs)
	weights := make([]uint32, hd.arcs)
	r := bytes.NewReader(payload)
	for _, v := range []any{offsets, targets, weights} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("snapshot: graph section arrays: %w", err)
		}
	}
	g, err := graph.FromCSRWithFingerprint(offsets, targets, weights, hd.fp)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if g.MinWeight() != hd.minW || g.MaxWeight() != hd.maxW {
		return nil, fmt.Errorf("snapshot: header weight range [%d,%d] does not match arrays [%d,%d]",
			hd.minW, hd.maxW, g.MinWeight(), g.MaxWeight())
	}
	return g, nil
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

// decodeChie copies the verified hierarchy payload into fresh arrays and
// reconstructs the hierarchy over g.
func decodeChie(payload []byte, g *graph.Graph, deep bool) (*ch.Hierarchy, error) {
	hd, err := parseChieHeader(payload, g)
	if err != nil {
		return nil, err
	}
	level := make([]int32, hd.nodes)
	parent := make([]int32, hd.nodes)
	vertexCount := make([]int32, hd.nodes)
	childStart := make([]int32, hd.nodes-hd.leaves+1)
	children := make([]int32, hd.childLen)
	r := bytes.NewReader(payload[chieHeaderSize:])
	for _, v := range []any{level, parent, vertexCount, childStart, children} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("snapshot: hierarchy section arrays: %w", err)
		}
	}
	h, err := ch.FromRaw(g, ch.Raw{
		Level: level, Parent: parent, VertexCount: vertexCount,
		ChildStart: childStart, Children: children,
		Root: hd.root, MaxLevel: hd.maxLevel, VirtualRoot: hd.virtualRoot,
	}, deep)
	if err != nil {
		return nil, fmt.Errorf("snapshot: hierarchy section: %w", err)
	}
	return h, nil
}

// readZeros consumes n bytes that must all be zero — the header padding sits
// outside both section checksums, so it is verified explicitly.
func readZeros(r io.Reader, n int64) error {
	var buf [4096]byte
	for n > 0 {
		c := int64(len(buf))
		if c > n {
			c = n
		}
		if _, err := io.ReadFull(r, buf[:c]); err != nil {
			return fmt.Errorf("snapshot: header padding truncated: %w", err)
		}
		for _, b := range buf[:c] {
			if b != 0 {
				return errors.New("snapshot: nonzero byte in header padding (corrupted file)")
			}
		}
		n -= c
	}
	return nil
}

// readCapped reads a declared-length payload without trusting the
// declaration. When the remaining file size is known (remaining >= 0) a
// length exceeding it is refused before any allocation. When it is not — a
// plain io.Reader — the buffer grows in 4 MiB steps as bytes actually
// arrive, so a lying length on a short stream costs at most one spare chunk,
// not the declared gigabytes.
func readCapped(r io.Reader, length uint64, remaining int64, what string) ([]byte, error) {
	if length > maxSectionLen {
		return nil, fmt.Errorf("snapshot: %s section declares implausible length %d", what, length)
	}
	if remaining >= 0 {
		if length > uint64(remaining) {
			return nil, fmt.Errorf("snapshot: %s section declares %d bytes but only %d remain in file",
				what, length, remaining)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("snapshot: %s section truncated: %w", what, err)
		}
		return payload, nil
	}
	const chunk = 4 << 20
	var payload []byte
	for uint64(len(payload)) < length {
		c := length - uint64(len(payload))
		if c > chunk {
			c = chunk
		}
		start := len(payload)
		payload = append(payload, make([]byte, c)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("snapshot: %s section truncated: %w", what, err)
		}
	}
	return payload, nil
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

// ReadFile loads a snapshot from disk into fresh arrays (the copy path; see
// Map for zero-copy). The file size bounds every declared section length, so
// a corrupt header cannot force a large allocation.
func ReadFile(path string) (*graph.Graph, *ch.Hierarchy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	return readWithSize(f, size)
}
