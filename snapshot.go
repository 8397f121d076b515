package cqrep

import (
	"fmt"
	"io"
	"os"

	"cqrep/internal/core"
)

// snapshot.go is the public face of the compile-once / serve-many split:
// a compiled Representation serializes to a versioned, checksummed binary
// snapshot (DESIGN.md, "Snapshot wire format") that a later process loads
// in a fraction of the compression time T_C. A loaded representation
// enumerates byte-for-byte identically to the one that was saved.

// WriteTo serializes the representation as one snapshot frame to w,
// implementing io.WriterTo. The frame is self-describing — magic bytes,
// format version, payload length, and a CRC-32 payload checksum — so a
// reader can reject foreign, corrupt, or version-skewed files before
// touching the payload.
func (r *Representation) WriteTo(w io.Writer) (int64, error) { return r.rep.WriteTo(w) }

// ReadRepresentation loads a snapshot previously written by WriteTo.
// Failures are typed: a stream that does not carry the snapshot magic, is
// truncated, fails its checksum, or is self-inconsistent wraps
// ErrBadSnapshot; a format version this build does not understand wraps
// ErrSnapshotVersion. Stats().BuildTime of the loaded representation
// reports the original compression time T_C.
func ReadRepresentation(rd io.Reader) (*Representation, error) {
	rep, err := core.ReadRepresentation(rd)
	if err != nil {
		return nil, err
	}
	return &Representation{rep: rep}, nil
}

// Save writes the representation's snapshot to path via a temporary file
// in the same directory plus an atomic rename, so readers never observe a
// half-written snapshot and a failed Save leaves no partial file behind.
// The file ends up with plain os.Create permissions (0666 before umask) —
// readable for the compile-once/serve-many handoff under the default
// umask, private under a restrictive one.
func (r *Representation) Save(path string) error { return r.rep.Save(path) }

// Load reads a snapshot file previously written by Save, with the same
// error contract as ReadRepresentation.
func Load(path string) (*Representation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := ReadRepresentation(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// LoadMmap maps the snapshot file at path instead of reading it, deferring
// all decoding to first access: the call itself validates only the frame
// header and the stored view, so it returns in O(file-open) time
// regardless of snapshot size, and a process can hold thousands of views
// while paying decode cost only for the ones that receive traffic. Sharded
// snapshots stay lazy per shard — an access request that routes to one
// shard decodes exactly that shard's frame.
//
// The loaded representation answers byte-for-byte identically to one from
// Load. The error contract differs only in timing: header-level damage
// (bad magic, truncation, version skew) fails here with the usual typed
// errors, while payload-level damage (checksum mismatch, corrupt
// structure) surfaces at first touch — Query returns an empty stream whose
// IterErr wraps ErrBadSnapshot, Bind returns the error, Exists reports
// false.
func LoadMmap(path string) (*Representation, error) {
	rep, err := core.OpenRepresentationMmap(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Representation{rep: rep}, nil
}
