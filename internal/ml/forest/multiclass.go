package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"opprentice/internal/ml/tree"
)

// MultiClass is a one-vs-rest multi-class head built from binary random
// forests: one forest per class code present in the training labels, sharing
// the 133-severity feature matrix with the verdict forest. Prediction is the
// argmax of the per-class vote fractions, with an abstain floor: when no
// class clears 0.5 the head predicts class 0 ("none").
type MultiClass struct {
	classes []uint8
	heads   []*Forest
}

// multiAbstain is the minimum winning vote fraction: below it the head
// abstains and predicts class 0. One-vs-rest forests are each trained on a
// heavily imbalanced binary problem, so a sub-majority winner means "none of
// the heads recognized this point".
const multiAbstain = 0.5

// headSeedStride decorrelates the per-class forests: head k trains with
// cfg.Seed + k·headSeedStride so no two heads share per-tree RNG streams.
const headSeedStride = 7_777_777

// TrainMulti trains a one-vs-rest multi-class head on presorted features (the
// heads, and the verdict forest trained beside them, share the one sort) and
// per-row class codes (0 = none). One binary forest is trained per
// non-zero class code that has at least one positive and one negative row;
// codes absent from the labels get no head and can never be predicted. It
// returns nil when no trainable class exists (all rows are class 0, or a
// single class covers every row) — callers treat a nil head as "typing
// unavailable".
func TrainMulti(ps *tree.Presorted, classes []uint8, cfg Config) *MultiClass {
	if len(ps.Cols()) == 0 || len(classes) != ps.Rows() {
		panic(fmt.Sprintf("forest: %d class labels for %d rows", len(classes), ps.Rows()))
	}
	present := map[uint8]int{}
	for _, c := range classes {
		present[c]++
	}
	codes := make([]uint8, 0, len(present))
	for c, n := range present {
		if c == 0 || n == len(classes) {
			continue // class 0 is the abstain target; a class covering every row has no negatives
		}
		codes = append(codes, c)
	}
	if len(codes) == 0 {
		return nil
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	mc := &MultiClass{classes: codes, heads: make([]*Forest, len(codes))}
	labels := make([]bool, len(classes))
	for k, code := range codes {
		for i, c := range classes {
			labels[i] = c == code
		}
		hcfg := cfg
		hcfg.Seed = cfg.Seed + int64(k+1)*headSeedStride
		mc.heads[k] = TrainOn(ps, labels, 0, 0, hcfg)
	}
	return mc
}

// PredictRow classifies one feature row: the class whose head votes the
// highest fraction, or 0 when no head clears the abstain floor. It allocates
// nothing (each head's Prob is allocation-free), so it is
// safe on the scoring hot path.
func (mc *MultiClass) PredictRow(row []float64) (uint8, float64) {
	best, bestProb := uint8(0), 0.0
	for k, h := range mc.heads {
		if p := h.Prob(row); p > bestProb {
			best, bestProb = mc.classes[k], p
		}
	}
	if bestProb < multiAbstain {
		return 0, bestProb
	}
	return best, bestProb
}

// Classes returns the class codes with a trained head, ascending.
func (mc *MultiClass) Classes() []uint8 {
	out := make([]uint8, len(mc.classes))
	copy(out, mc.classes)
	return out
}

// multiDTO is the gob wire form of a multi-class head: each per-class forest
// rides as its own Save payload.
type multiDTO struct {
	Version int
	Classes []uint8
	Heads   [][]byte
}

// multiSerializationVersion guards against loading incompatible snapshots.
const multiSerializationVersion = 1

// Save writes the multi-class head to w. Pair with LoadMulti.
func (mc *MultiClass) Save(w io.Writer) error {
	dto := multiDTO{
		Version: multiSerializationVersion,
		Classes: mc.classes,
		Heads:   make([][]byte, len(mc.heads)),
	}
	for k, h := range mc.heads {
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			return err
		}
		dto.Heads[k] = buf.Bytes()
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadMulti reads a multi-class head previously written by Save.
func LoadMulti(r io.Reader) (*MultiClass, error) {
	var dto multiDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("forest: decode multiclass: %w", err)
	}
	if dto.Version != multiSerializationVersion {
		return nil, fmt.Errorf("forest: multiclass snapshot version %d, want %d", dto.Version, multiSerializationVersion)
	}
	if len(dto.Classes) == 0 || len(dto.Classes) != len(dto.Heads) {
		return nil, fmt.Errorf("forest: multiclass snapshot has %d classes for %d heads", len(dto.Classes), len(dto.Heads))
	}
	mc := &MultiClass{classes: dto.Classes, heads: make([]*Forest, len(dto.Heads))}
	for k, b := range dto.Heads {
		h, err := Load(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		mc.heads[k] = h
	}
	return mc, nil
}
