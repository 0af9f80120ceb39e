// Record framing for the archive's segment files.
//
// Every record is one frame:
//
//	[4 bytes big-endian payload length][4 bytes CRC32C of payload][payload]
//
// and every payload opens with a one-byte kind:
//
//	KindReport     [32 bytes tx hash][8 bytes block][1 byte flags][report JSON]
//	KindCheckpoint [8 bytes block][32 bytes block digest]
//
// The length prefix bounds the read, the CRC (Castagnoli — the
// hardware-accelerated polynomial storage systems use) detects torn or
// bit-rotted payloads, and the kind byte lets checkpoints ride in the
// same log as reports so one fsync covers both. Decoding never trusts
// the input: lengths are capped, payload structure is re-validated, and
// any violation surfaces as an error rather than a panic — the property
// FuzzSegmentDecode pins down.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"leishen/internal/types"
)

// Kind discriminates the record payloads sharing the log.
type Kind uint8

const (
	// KindReport is one archived detection report.
	KindReport Kind = 1
	// KindCheckpoint marks every block up to and including Block as fully
	// archived; Digest identifies that block for reorg detection.
	KindCheckpoint Kind = 2
)

// Report verdict flags, so range queries filter without parsing JSON.
const (
	// FlagFlashLoan marks a receipt with at least one identified loan.
	FlagFlashLoan uint8 = 1 << 0
	// FlagAttack marks an flpAttack verdict.
	FlagAttack uint8 = 1 << 1
	// FlagSuppressed marks a verdict discarded by the yield-aggregator
	// heuristic.
	FlagSuppressed uint8 = 1 << 2
)

const (
	// frameHeaderSize is the length + CRC prefix.
	frameHeaderSize = 8
	// maxPayloadSize caps one record; a length prefix beyond it is
	// corruption, not a record to allocate.
	maxPayloadSize = 16 << 20
	// reportHeaderSize is the fixed part of a KindReport payload after the
	// kind byte.
	reportHeaderSize = 32 + 8 + 1
	// checkpointSize is a KindCheckpoint payload after the kind byte.
	checkpointSize = 8 + 32
)

// castagnoli is the CRC32C table, shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame distinguishes "this is not (yet) a whole valid record" —
// the torn-tail condition recovery truncates at — from I/O errors.
var errBadFrame = errors.New("bad frame")

// Record is one decoded log entry.
type Record struct {
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind

	// TxHash, Block, Flags and Report are the KindReport fields; Report
	// is the detection report's wire JSON (core.ReportJSON).
	TxHash types.Hash
	Block  uint64
	Flags  uint8
	Report []byte

	// Checkpoint is the KindCheckpoint field (Block doubles as its
	// height).
	Digest types.Hash
}

// appendRecord frames r straight onto dst: header placeholder, payload,
// then the length and the CRC over the payload span, so no temporary
// payload is built. On error dst is returned unextended.
func appendRecord(dst []byte, r *Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindReport:
		dst = append(dst, r.TxHash[:]...)
		dst = binary.BigEndian.AppendUint64(dst, r.Block)
		dst = append(dst, r.Flags)
		dst = append(dst, r.Report...)
	case KindCheckpoint:
		dst = binary.BigEndian.AppendUint64(dst, r.Block)
		dst = append(dst, r.Digest[:]...)
	default:
		return dst[:start], fmt.Errorf("archive: encode unknown record kind %d", r.Kind)
	}
	payload := dst[start+frameHeaderSize:]
	if len(payload) > maxPayloadSize {
		return dst[:start], fmt.Errorf("archive: record payload %d bytes exceeds the %d cap", len(payload), maxPayloadSize)
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc32.Update(0, castagnoli, payload))
	return dst, nil
}

// decodeRecord parses one frame from the head of b, returning the record
// and the frame's total size. A short, oversized, checksum-failing or
// structurally invalid frame returns an error wrapping errBadFrame; the
// caller decides whether that is a torn tail (truncate) or corruption
// (fail). The record's Report bytes are an independent copy of b's.
func decodeRecord(b []byte) (Record, int, error) {
	rec, n, err := decodeRecordAliased(b)
	if err != nil {
		return Record{}, 0, err
	}
	if rec.Report != nil {
		rec.Report = append([]byte(nil), rec.Report...)
	}
	return rec, n, nil
}

// decodeRecordAliased is decodeRecord without the payload copy: the
// returned Report subslices b. The zero-decode read path uses it to
// serve stored bytes straight out of one read buffer; anything that
// outlives b must copy.
func decodeRecordAliased(b []byte) (Record, int, error) {
	if len(b) < frameHeaderSize {
		return Record{}, 0, fmt.Errorf("%w: %d-byte tail is shorter than a frame header", errBadFrame, len(b))
	}
	size := int(binary.BigEndian.Uint32(b[0:4]))
	if size > maxPayloadSize {
		return Record{}, 0, fmt.Errorf("%w: payload length %d exceeds the %d cap", errBadFrame, size, maxPayloadSize)
	}
	if len(b) < frameHeaderSize+size {
		return Record{}, 0, fmt.Errorf("%w: frame wants %d payload bytes, %d available", errBadFrame, size, len(b)-frameHeaderSize)
	}
	payload := b[frameHeaderSize : frameHeaderSize+size]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(b[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: CRC32C mismatch (stored %08x, computed %08x)", errBadFrame, want, got)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeaderSize + size, nil
}

// decodePayload parses a CRC-verified payload.
func decodePayload(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", errBadFrame)
	}
	var rec Record
	rec.Kind = Kind(payload[0])
	body := payload[1:]
	switch rec.Kind {
	case KindReport:
		if len(body) < reportHeaderSize {
			return Record{}, fmt.Errorf("%w: report payload %d bytes, want >= %d", errBadFrame, len(body), reportHeaderSize)
		}
		copy(rec.TxHash[:], body[0:32])
		rec.Block = binary.BigEndian.Uint64(body[32:40])
		rec.Flags = body[40]
		rec.Report = body[reportHeaderSize:]
	case KindCheckpoint:
		if len(body) != checkpointSize {
			return Record{}, fmt.Errorf("%w: checkpoint payload %d bytes, want %d", errBadFrame, len(body), checkpointSize)
		}
		rec.Block = binary.BigEndian.Uint64(body[0:8])
		copy(rec.Digest[:], body[8:40])
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", errBadFrame, rec.Kind)
	}
	return rec, nil
}
