// Package snapshot persists a (graph, Component Hierarchy) pair as one
// versioned binary artifact — the compiled form of an instance in the serving
// stack. The paper's pipeline is two-phase (build the hierarchy once, answer
// many queries); a snapshot makes the first phase a one-time compile step,
// and it is the only persisted form of the pair: gengraph -snap writes one
// from a generator or (with -in) from a DIMACS file. The graph section is
// laid out byte-for-byte as the in-memory CSR arrays, page-aligned, so Map
// can mmap the file and serve the arrays zero-copy — load is a page mapping
// plus validation, and resident graphs cost page cache instead of heap.
//
// # Format v2 (all little-endian)
//
// Fixed 96-byte header:
//
//	off  0  magic      [8]byte  "SSSPSNAP"
//	off  8  version    uint32   2
//	off 12  fpN        uint32   graph fingerprint: vertices (≤ MaxInt32)
//	off 16  fpM        uint64   graph fingerprint: undirected edges
//	off 24  fpCRC      uint64   graph fingerprint: CRC-64/ECMA over the CSR arrays
//	off 32  arcs       uint64   stored arc count (= len(targets) = len(weights))
//	off 40  minW       uint32   smallest edge weight (0 iff no edges)
//	off 44  maxW       uint32   largest edge weight
//	off 48  grphOff    uint64   graph section offset, always 4096 (page-aligned)
//	off 56  grphLen    uint64   graph section length = (fpN+1)*8 + arcs*8
//	off 64  chieOff    uint64   hierarchy section offset = grphOff + grphLen
//	off 72  chieLen    uint64   hierarchy section length
//	off 80  chieCRC    uint64   CRC-64/ECMA over the hierarchy section
//	off 88  headerCRC  uint64   CRC-64/ECMA over header bytes [0, 88)
//
// Bytes [96, 4096) are zero padding (verified zero on read — they sit outside
// both section checksums).
//
// Graph section at grphOff: offsets [fpN+1]int64, targets [arcs]int32,
// weights [arcs]uint32, concatenated with no framing. These are exactly the
// bytes graph.Fingerprint hashes, so fpCRC doubles as this section's checksum
// and no separate field is needed. grphLen is a multiple of 8, so chieOff is
// 8-aligned and every array in both sections starts at an offset aligned for
// its element type — the alignment contract the mmap views rely on.
//
// Hierarchy section at chieOff — a 40-byte header:
//
//	off  0  nodes     uint32  total CH nodes (leaves + internal)
//	off  4  leaves    uint32  leaf count (= graph vertices)
//	off  8  root      int32   root node id (-1 iff nodes == 0)
//	off 12  maxLevel  int32
//	off 16  virtual   uint32  1 if the root is virtual (disconnected graph)
//	off 20  childLen  uint32  total child links
//	off 24  fpM       uint64  owning graph's fingerprint (binds the section:
//	off 32  fpCRC     uint64  a CH spliced from another snapshot is refused)
//
// followed by level, parent, vertexCount (each [nodes]int32), childStart
// [nodes-leaves+1]int32, children [childLen]int32. The file ends exactly at
// chieOff+chieLen; readers with access to the file size reject any mismatch.
//
// # Read paths
//
// Map mmaps the file and hands out graph/hierarchy arrays aliasing
// the mapping via unsafe.Slice. The first Map of a file verifies everything —
// header CRC and geometry, zero padding, both section CRCs, the O(n+m) CSR
// validation scan, structural hierarchy checks — then records the file's
// identity (device, inode, size, mtime) in a small registry; re-mapping the
// same unchanged file skips straight to O(1) shape checks. The returned
// Mapping owns the mapped bytes and must outlive the graph.
//
// Read/ReadFile decode into fresh heap arrays (the fallback for platforms
// without mmap and big-endian hosts). Declared section lengths are bounded by
// the remaining file size — or read chunk-by-chunk when the size is unknown —
// so a corrupt header cannot force a giant allocation, and a header vertex
// count above MaxInt32 is rejected outright.
//
// Both sections are independently checksummed, so corruption is localized in
// error reports and detected before any derived structure is built. The
// leading fingerprint identifies the instance without reading the arrays
// (ReadFingerprint) and is cross-checked against the decoded graph.
//
// # Format v1 (removed)
//
// v1 was a tagged stream sharing the first 32 header bytes (version 1, no
// fields past fpCRC). Every entry point refuses it with ErrV1 on the strength
// of that prefix alone, before reading or allocating anything else.
//
// See DESIGN.md §9 ("Graph catalog & snapshots") for how this package fits the system.
package snapshot
