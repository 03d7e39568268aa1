package forest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"opprentice/internal/ml/tree"
)

// The forest record of the model artifact codec: the flat node array itself,
// fixed-width little-endian, so that decoding is a bounds-checked copy.
//
//	d:u32 roots:u32 nodes:u32 root:u32 × roots node × nodes
//	node: val:f64 left:i32 feature:u16 zero:u16
//
// A multi-class record is classes:u8 followed by code:u8 and a forest record
// per class.

const (
	recordHeader = 12 // d, root count, node count
	nodeBytes    = 16 // one tree.Node, as the codec stores it
)

// errTruncated reports a record that ends before its counts say it does.
var errTruncated = errors.New("forest: record truncated")

// Append appends the forest's record to b and returns the extended slice.
func (f *Forest) Append(b []byte) []byte {
	b = slices.Grow(b, recordHeader+4*len(f.roots)+nodeBytes*len(f.flat))
	b = binary.LittleEndian.AppendUint32(b, uint32(f.d))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.roots)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.flat)))
	for _, r := range f.roots {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for _, nd := range f.flat {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nd.Val))
		b = binary.LittleEndian.AppendUint32(b, uint32(nd.Left))
		b = binary.LittleEndian.AppendUint16(b, nd.Feature)
		b = append(b, 0, 0)
	}
	return b
}

// Load reads a forest record over d features from the front of b and
// returns the forest and the bytes after the record. The bytes may be
// anything a valid checksum sits over, so every walk of an accepted forest
// must stay in bounds and end: each root indexes a node, and each internal
// node tests a feature below d and has both children after itself and
// inside the array. A NaN threshold, which no split emits, is refused too.
func Load(b []byte, d int) (*Forest, []byte, error) {
	if len(b) < recordHeader {
		return nil, nil, errTruncated
	}
	le := binary.LittleEndian
	fd, nr, nn := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:])
	b = b[recordHeader:]
	switch {
	case int64(fd) != int64(d):
		return nil, nil, fmt.Errorf("forest: record has %d features, want %d", fd, d)
	case nr == 0:
		return nil, nil, errors.New("forest: record has no trees")
	case nn > math.MaxInt32:
		return nil, nil, fmt.Errorf("forest: record has %d nodes", nn)
	case uint64(len(b)) < 4*uint64(nr)+nodeBytes*uint64(nn):
		return nil, nil, errTruncated
	}
	f := &Forest{flat: make([]tree.Node, nn), roots: make([]int32, nr), d: d}
	for t := range f.roots {
		r := le.Uint32(b[4*t:])
		if r >= nn {
			return nil, nil, fmt.Errorf("forest: tree %d root %d outside %d nodes", t, r, nn)
		}
		f.roots[t] = int32(r)
	}
	b = b[4*nr:]
	for i := range f.flat {
		nd := tree.Node{
			Val:     math.Float64frombits(le.Uint64(b)),
			Left:    int32(le.Uint32(b[8:])),
			Feature: le.Uint16(b[12:]),
		}
		b = b[nodeBytes:]
		if math.IsNaN(nd.Val) {
			return nil, nil, fmt.Errorf("forest: node %d holds NaN", i)
		}
		if nd.Left >= 0 && (int(nd.Feature) >= d || int(nd.Left) <= i || int64(nd.Left)+1 >= int64(nn)) {
			return nil, nil, fmt.Errorf("forest: node %d (feature %d of %d, children %d and %d of %d) forms no tree",
				i, nd.Feature, d, nd.Left, int64(nd.Left)+1, nn)
		}
		f.flat[i] = nd
	}
	return f, b, nil
}

// Append appends the multi-class head's record to b and returns the
// extended slice.
func (mc *MultiClass) Append(b []byte) []byte {
	b = append(b, uint8(len(mc.heads)))
	for k, h := range mc.heads {
		b = append(b, mc.classes[k])
		b = h.Append(b)
	}
	return b
}

// LoadMulti reads a multi-class record over d features from the front of
// b and returns the head and the bytes after the record. The class codes
// must be non-zero and strictly ascending, as TrainMulti emits them.
func LoadMulti(b []byte, d int) (*MultiClass, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errTruncated
	}
	n := int(b[0])
	b = b[1:]
	if n == 0 {
		return nil, nil, errors.New("forest: multi-class record has no classes")
	}
	mc := &MultiClass{classes: make([]uint8, n), heads: make([]*Forest, n)}
	for k := range mc.heads {
		if len(b) == 0 {
			return nil, nil, errTruncated
		}
		c := b[0]
		if c == 0 || k > 0 && c <= mc.classes[k-1] {
			return nil, nil, fmt.Errorf("forest: multi-class record lists class %d after %v", c, mc.classes[:k])
		}
		h, rest, err := Load(b[1:], d)
		if err != nil {
			return nil, nil, err
		}
		mc.classes[k], mc.heads[k], b = c, h, rest
	}
	return mc, b, nil
}
