package forest

import (
	"encoding/gob"
	"fmt"
	"io"

	"opprentice/internal/ml/tree"
)

// forestDTO is the gob wire form of a trained forest. MajorityVote stays in
// it so that stored forests and Save's bytes keep one shape: Save writes it
// false and Load ignores it.
type forestDTO struct {
	Version      int
	Trees        [][]byte
	Binner       []byte
	MajorityVote bool
}

// serializationVersion guards against loading incompatible snapshots.
const serializationVersion = 1

// init numbers both snapshot forms before anything else can. gob assigns
// type ids process-wide, in the order it first meets each type, and writes
// them into the stream, so without this the bytes Save writes would depend on
// what the process had encoded or decoded before (a Monitor snapshot, say).
func init() {
	for _, dto := range []any{forestDTO{}, multiDTO{}} {
		if err := gob.NewEncoder(io.Discard).Encode(dto); err != nil {
			panic(err)
		}
	}
}

// Save writes the trained forest (trees and feature binner) to w, so a
// deployment can restart without retraining.
func (f *Forest) Save(w io.Writer) error {
	dto := forestDTO{Version: serializationVersion, Trees: make([][]byte, len(f.trees))}
	for i, t := range f.trees {
		b, err := t.MarshalBinary()
		if err != nil {
			return err
		}
		dto.Trees[i] = b
	}
	b, err := f.binner.MarshalBinary()
	if err != nil {
		return err
	}
	dto.Binner = b
	return gob.NewEncoder(w).Encode(dto)
}

// Load reads a forest previously written by Save.
func Load(r io.Reader) (*Forest, error) {
	var dto forestDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("forest: decode: %w", err)
	}
	if dto.Version != serializationVersion {
		return nil, fmt.Errorf("forest: snapshot version %d, want %d", dto.Version, serializationVersion)
	}
	if len(dto.Trees) == 0 {
		return nil, fmt.Errorf("forest: snapshot has no trees")
	}
	f := &Forest{trees: make([]*tree.Tree, len(dto.Trees)), binner: new(tree.Binner)}
	for i, b := range dto.Trees {
		t := new(tree.Tree)
		if err := t.UnmarshalBinary(b); err != nil {
			return nil, err
		}
		f.trees[i] = t
	}
	if err := f.binner.UnmarshalBinary(dto.Binner); err != nil {
		return nil, err
	}
	// The flat inference array is derived state: rebuild rather than ship it.
	if err := f.buildFlat(); err != nil {
		return nil, err
	}
	return f, nil
}
