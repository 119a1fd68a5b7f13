package algorithms

import (
	"encoding/binary"

	"tornado/internal/datasets"
	"tornado/internal/engine"
)

// Fixed binary layouts of every state and pending type this package
// registers (engine.BinaryState; DESIGN.md "State codec"): fields in
// declaration order, written with the primitives of engine/binary.go. Stored
// blobs carry the tags — append new ones, never renumber.
const (
	tagSSSP byte = engine.FirstStateTag + iota
	tagWSSSP
	tagDeltaSSSP
	tagSSSPDelta
	tagPageRank
	tagCC
	tagKMBlock
	tagKMCentroid
	tagSGDParam
	tagSGDSampler
)

func (*SSSPState) BinaryTag() byte { return tagSSSP }

func (s *SSSPState) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(binary.AppendVarint(dst, s.Length), s.Sent)
	return engine.AppendIDMap(dst, s.SrcLens, binary.AppendVarint)
}

func (*SSSPState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := readSSSP(&r)
	return &s, r.Buf, r.Err
}

func readSSSP(r *engine.BinReader) SSSPState {
	return SSSPState{Length: r.Varint(), Sent: r.Varint(), SrcLens: engine.ReadIDMap(r, binary.Varint)}
}

// DeltaSSSPState embeds SSSPState and would inherit its methods: all three
// are overridden.
func (*DeltaSSSPState) BinaryTag() byte { return tagDeltaSSSP }

func (s *DeltaSSSPState) AppendBinary(dst []byte) []byte {
	return binary.AppendUvarint(s.SSSPState.AppendBinary(dst), s.Seq)
}

func (*DeltaSSSPState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &DeltaSSSPState{SSSPState: readSSSP(&r), Seq: r.Uvarint()}
	return s, r.Buf, r.Err
}

func (ssspDelta) BinaryTag() byte { return tagSSSPDelta }

func (d ssspDelta) AppendBinary(dst []byte) []byte {
	return binary.AppendVarint(binary.AppendUvarint(dst, d.Seq), d.Len)
}

func (ssspDelta) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	d := ssspDelta{Seq: r.Uvarint(), Len: r.Varint()}
	return d, r.Buf, r.Err
}

func (*WSSSPState) BinaryTag() byte { return tagWSSSP }

func (s *WSSSPState) AppendBinary(dst []byte) []byte {
	dst = engine.AppendFloat64(dst, s.Dist)
	dst = engine.AppendIDMap(dst, s.TargetW, engine.AppendFloat64)
	dst = engine.AppendIDMap(dst, s.SrcDist, engine.AppendFloat64)
	return engine.AppendIDMap(dst, s.SentTo, engine.AppendFloat64)
}

func (*WSSSPState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &WSSSPState{Dist: r.Float64(),
		TargetW: engine.ReadIDMap(&r, engine.ReadFloat64),
		SrcDist: engine.ReadIDMap(&r, engine.ReadFloat64),
		SentTo:  engine.ReadIDMap(&r, engine.ReadFloat64)}
	return s, r.Buf, r.Err
}

func (*PageRankState) BinaryTag() byte { return tagPageRank }

func (s *PageRankState) AppendBinary(dst []byte) []byte {
	dst = engine.AppendFloat64(engine.AppendFloat64(dst, s.Rank), s.Sent)
	return engine.AppendIDMap(dst, s.Contribs, engine.AppendFloat64)
}

func (*PageRankState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &PageRankState{Rank: r.Float64(), Sent: r.Float64(), Contribs: engine.ReadIDMap(&r, engine.ReadFloat64)}
	return s, r.Buf, r.Err
}

func (*CCState) BinaryTag() byte { return tagCC }

func (s *CCState) AppendBinary(dst []byte) []byte {
	dst = engine.AppendID(engine.AppendID(dst, s.Label), s.Sent)
	dst = engine.AppendIDMap(dst, s.SrcLabels, engine.AppendID)
	return engine.AppendBool(dst, s.Started)
}

func (*CCState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &CCState{Label: r.ID(), Sent: r.ID(), SrcLabels: engine.ReadIDMap(&r, engine.ReadID), Started: r.Byte() != 0}
	return s, r.Buf, r.Err
}

func (*KMBlockState) BinaryTag() byte { return tagKMBlock }

func (s *KMBlockState) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Points)))
	for _, pt := range s.Points {
		dst = engine.AppendFloats(dst, pt)
	}
	dst = engine.AppendIDMap(dst, s.Cents, engine.AppendFloats)
	return engine.AppendIDMap(dst, s.LastSent, appendKMSums)
}

func (*KMBlockState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &KMBlockState{}
	if n := r.Count(1); n > 0 {
		s.Points = make([]datasets.Point, n)
		for i := range s.Points {
			s.Points[i] = r.Floats()
		}
	}
	s.Cents = engine.ReadIDMap(&r, sub((*engine.BinReader).Floats))
	s.LastSent = engine.ReadIDMap(&r, sub(readKMSums))
	return s, r.Buf, r.Err
}

func (*KMCentroidState) BinaryTag() byte { return tagKMCentroid }

func (s *KMCentroidState) AppendBinary(dst []byte) []byte {
	dst = engine.AppendFloats(engine.AppendFloats(dst, s.Pos), s.Sent)
	return engine.AppendIDMap(dst, s.Sums, appendKMSums)
}

func (*KMCentroidState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &KMCentroidState{Pos: r.Floats(), Sent: r.Floats(), Sums: engine.ReadIDMap(&r, sub(readKMSums))}
	return s, r.Buf, r.Err
}

func appendKMSums(dst []byte, s KMSums) []byte {
	return binary.AppendVarint(engine.AppendFloats(dst, s.Sum), s.Count)
}

func readKMSums(r *engine.BinReader) KMSums { return KMSums{Sum: r.Floats(), Count: r.Varint()} }

func (*SGDParamState) BinaryTag() byte { return tagSGDParam }

func (s *SGDParamState) AppendBinary(dst []byte) []byte {
	dst = engine.AppendFloat64(engine.AppendFloat64(engine.AppendFloats(dst, s.W), s.Eta), s.PrevObj)
	dst = binary.AppendVarint(binary.AppendVarint(engine.AppendBool(dst, s.HasPrev), s.Rounds), s.BranchRounds)
	return engine.AppendIDMap(dst, s.Grads, func(dst []byte, g GradMsg) []byte {
		return engine.AppendFloat64(binary.AppendVarint(engine.AppendFloats(dst, g.G), g.N), g.Loss)
	})
}

func (*SGDParamState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &SGDParamState{W: r.Floats(), Eta: r.Float64(), PrevObj: r.Float64(), HasPrev: r.Byte() != 0,
		Rounds: r.Varint(), BranchRounds: r.Varint()}
	s.Grads = engine.ReadIDMap(&r, sub(func(r *engine.BinReader) GradMsg {
		return GradMsg{G: r.Floats(), N: r.Varint(), Loss: r.Float64()}
	}))
	return s, r.Buf, r.Err
}

func (*SGDSamplerState) BinaryTag() byte { return tagSGDSampler }

func (s *SGDSamplerState) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Sample)))
	for _, in := range s.Sample {
		dst = binary.AppendUvarint(engine.AppendFloats(dst, in.X), uint64(len(in.Idx)))
		for _, i := range in.Idx {
			dst = binary.AppendVarint(dst, int64(i))
		}
		dst = engine.AppendFloat64(dst, in.Y)
	}
	dst = engine.AppendFloats(binary.AppendVarint(dst, s.Seen), s.W)
	return engine.AppendBool(engine.AppendBool(dst, s.NewData), s.NewW)
}

func (*SGDSamplerState) DecodeBinary(src []byte) (any, []byte, error) {
	r := engine.BinReader{Buf: src}
	s := &SGDSamplerState{}
	if n := r.Count(1); n > 0 {
		s.Sample = make([]datasets.Instance, n)
	}
	for i := range s.Sample {
		in := &s.Sample[i]
		in.X = r.Floats()
		if n := r.Count(1); n > 0 {
			in.Idx = make([]int, n)
		}
		for j := range in.Idx {
			in.Idx[j] = int(r.Varint())
		}
		in.Y = r.Float64()
	}
	s.Seen, s.W, s.NewData, s.NewW = r.Varint(), r.Floats(), r.Byte() != 0, r.Byte() != 0
	return s, r.Buf, r.Err
}

// sub adapts a BinReader-style decoder of a composite map value to
// engine.ReadIDMap's (value, bytes consumed) shape.
func sub[V any](read func(*engine.BinReader) V) func([]byte) (V, int) {
	return func(buf []byte) (V, int) {
		r := engine.BinReader{Buf: buf}
		v := read(&r)
		if r.Err != nil {
			return v, 0
		}
		return v, len(buf) - len(r.Buf)
	}
}
