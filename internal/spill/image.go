package spill

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/join"
	"repro/internal/partition"
)

// Image is the whole state of one partition group: its memory tier and
// its spilled generations in ascending order. Every mover of group
// state — relocation, the replication seed, follower promotion — takes
// an image out of one (operator, store) pair and installs it into
// another; where the tiers are in between (a wire frame, a follower's
// standby) is placement, not a separate mechanism. Every tier is a
// snapshot as the wire and the disk encode it, so nothing on the way
// decodes a tuple: a taken image's tiers alias the store's segment
// bytes and the snapshot the operator made, a decoded one's alias the
// copy DecodeImage makes of each tier's bytes in its frame.
type Image struct {
	// Mem is the memory tier; nil means there is none (left) to install.
	Mem *join.GroupSnapshot
	// Disk holds the spilled generations still to be installed.
	Disk []*join.GroupSnapshot
}

// Take removes group id from (op, store) and returns it. The disk tier
// goes first: if the store fails, the memory tier is still in op and the
// returned image holds the segments already deleted, so installing it
// back undoes the attempt.
func Take(op *join.Operator, store Store, id partition.ID) (*Image, error) {
	disk, err := store.Remove(id)
	if err != nil {
		return &Image{Disk: disk}, fmt.Errorf("spill: take group %d: %w", id, err)
	}
	return newImage(op.RemoveForRelocation(id), disk), nil
}

// Copy returns the image of group id, leaving (op, store) unchanged.
func Copy(op *join.Operator, store Store, id partition.ID) (*Image, error) {
	disk, err := store.Read(id)
	if err != nil {
		return nil, fmt.Errorf("spill: copy group %d: %w", id, err)
	}
	return newImage(op.ResidentSnapshot(id), disk), nil
}

// newImage gives a group that exists only on disk the empty memory tier
// that follows its last generation, so wherever the image lands the
// group's next spill continues the numbering instead of colliding.
func newImage(mem *join.GroupSnapshot, disk []*join.GroupSnapshot) *Image {
	if mem == nil && len(disk) > 0 {
		last := disk[len(disk)-1]
		mem = last.Seal(last.Gen)
	}
	return &Image{Mem: mem, Disk: disk}
}

// Empty reports whether the image holds nothing to install.
func (im *Image) Empty() bool { return im.Mem == nil && len(im.Disk) == 0 }

// Group reports which group a non-empty image holds.
func (im *Image) Group() partition.ID {
	if im.Mem != nil {
		return im.Mem.ID
	}
	return im.Disk[0].ID
}

// Bytes reports the image's size per tier as its destination will
// account it: mem as an operator counts resident tuples, disk as a
// store counts encoded segments.
func (im *Image) Bytes() (mem, disk int64) {
	if im.Mem != nil {
		mem = im.Mem.MemBytes()
	}
	for _, seg := range im.Disk {
		disk += int64(seg.EncodedSize())
	}
	return mem, disk
}

// WriteDisk moves the disk tier into store. A segment leaves the image
// once written (and a store replaces a generation it already holds), so
// a retry after a failure resumes where it stopped.
func (im *Image) WriteDisk(store Store) error {
	for len(im.Disk) > 0 {
		if err := store.Write(im.Disk[0]); err != nil {
			return fmt.Errorf("spill: install segment %d of group %d: %w", im.Disk[0].Gen, im.Disk[0].ID, err)
		}
		im.Disk = im.Disk[1:]
	}
	return nil
}

// Install moves the image into (op, store): the disk tier, then the
// memory tier merged into op. Whatever landed leaves the image, so
// Install after a failed Install finishes the job rather than merging
// anything twice, and Install of an installed image does nothing.
func (im *Image) Install(op *join.Operator, store Store) error {
	if err := im.WriteDisk(store); err != nil {
		return err
	}
	if im.Mem != nil {
		if err := op.Merge(im.Mem); err != nil {
			return fmt.Errorf("spill: install memory tier of group %d: %w", im.Mem.ID, err)
		}
		im.Mem = nil
	}
	return nil
}

// AppendImage appends im's encoding to dst: a count, then that many
// length-prefixed join.EncodeSnapshot blobs — the memory tier first
// (length 0 when there is none), then the segments.
func AppendImage(dst []byte, im *Image) []byte {
	tiers := append([]*join.GroupSnapshot{im.Mem}, im.Disk...)
	sizes, total := make([]int, len(tiers)), 4
	for i, s := range tiers {
		if s != nil {
			sizes[i] = s.EncodedSize()
		}
		total += 4 + sizes[i]
	}
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, total), uint32(len(tiers)))
	for i, s := range tiers {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(sizes[i]))
		if s != nil {
			dst = join.AppendSnapshot(dst, s)
		}
	}
	return dst
}

// DecodeImage parses an AppendImage encoding. Every blob passes
// join.DecodeSnapshot's checks; beyond that the tiers must belong to one
// group and the segments' generations must ascend. Each tier's bytes are
// copied once and the tier aliases its copy, so the image owns its
// memory — the caller may reuse buf (a frame's pooled buffer) as soon as
// it returns — and a tier kept after the others were installed (a
// follower's standby) holds no bytes but its own.
func DecodeImage(buf []byte) (*Image, error) {
	if len(buf) < 4 || binary.LittleEndian.Uint32(buf) == 0 {
		return nil, fmt.Errorf("spill: image without a memory-tier slot")
	}
	n, buf := binary.LittleEndian.Uint32(buf), buf[4:]
	im := &Image{}
	var prev *join.GroupSnapshot
	for i := uint32(0); i < n; i++ {
		if len(buf) < 4 || uint64(binary.LittleEndian.Uint32(buf)) > uint64(len(buf)-4) {
			return nil, fmt.Errorf("spill: image truncated in tier %d of %d", i, n)
		}
		blob := buf[4 : 4+binary.LittleEndian.Uint32(buf)]
		buf = buf[4+len(blob):]
		if i == 0 && len(blob) == 0 {
			continue // no memory tier
		}
		snap, err := join.DecodeSnapshot(bytes.Clone(blob))
		if err != nil {
			return nil, fmt.Errorf("spill: image tier %d: %w", i, err)
		}
		if prev != nil && (snap.ID != prev.ID || (i > 1 && snap.Gen <= prev.Gen)) {
			return nil, fmt.Errorf("spill: image tier %d is group %d generation %d after group %d generation %d",
				i, snap.ID, snap.Gen, prev.ID, prev.Gen)
		}
		if prev = snap; i == 0 {
			im.Mem = snap
		} else {
			im.Disk = append(im.Disk, snap)
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("spill: %d trailing bytes in image", len(buf))
	}
	return im, nil
}
