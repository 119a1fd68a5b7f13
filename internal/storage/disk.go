package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tornado/internal/stream"
)

// DiskStore is an MVCCStore made durable by a single append-only log. It
// stands in for the paper's PostgreSQL backend: every Put appends a record,
// Flush fsyncs the log and appends a checkpoint mark, and OpenDisk replays
// the log into a fresh index to recover all state written before a crash
// (truncated or corrupt tails are discarded, mirroring write-ahead-log
// recovery). The log adds only the writes it must record; reads, snapshot
// handles, pins, Compact, StoreStats, NumVersions and LastCheckpoint are the
// embedded index's. Compact trims the index only: the log keeps history
// until rewritten (out of scope), so a reopened store holds the versions a
// compaction had dropped.
//
// Record layout (little endian):
//
//	kind(1) loop(8) vertex(8) iteration(8) dataLen(4) data(dataLen) crc32(4)
//
// where crc32 covers everything before it. kind is recPut, recCheckpoint,
// recDropLoop or recTruncate (all but recPut carry no data; recCheckpoint
// and recTruncate reuse the iteration field).
type DiskStore struct {
	*MVCCStore
	mu   sync.Mutex // orders each log append with its index update
	f    *os.File
	w    *bufio.Writer
	path string
}

const (
	recPut        = byte(1)
	recCheckpoint = byte(2)
	recDropLoop   = byte(3)
	recTruncate   = byte(4)

	recHeaderLen = 1 + 8 + 8 + 8 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenDisk opens (creating if needed) a disk store at path and recovers any
// existing state from the log.
func OpenDisk(path string) (*DiskStore, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("storage: create log dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open log: %w", err)
	}
	s := &DiskStore{MVCCStore: NewMVCCStore(), f: f, path: path}
	valid, err := s.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Discard a torn tail so new records append after the last valid one.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: seek: %w", err)
	}
	s.w = bufio.NewWriterSize(f, 1<<16)
	return s, nil
}

// replay scans the log, rebuilding the index. It returns the
// offset just past the last valid record.
func (s *DiskStore) replay() (int64, error) {
	fi, err := s.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("storage: stat log: %w", err)
	}
	size := fi.Size()
	r := bufio.NewReaderSize(s.f, 1<<16)
	var off int64
	hdr := make([]byte, recHeaderLen)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			// Clean EOF or torn header: stop at the last valid offset.
			return off, nil
		}
		kind := hdr[0]
		loop := LoopID(binary.LittleEndian.Uint64(hdr[1:9]))
		vertex := stream.VertexID(binary.LittleEndian.Uint64(hdr[9:17]))
		iter := int64(binary.LittleEndian.Uint64(hdr[17:25]))
		dataLen := binary.LittleEndian.Uint32(hdr[25:29])
		// A length that cannot fit in the rest of the file is a torn or
		// bit-flipped header; bail out before allocating a buffer for it.
		if int64(dataLen) > size-off-int64(recHeaderLen)-4 {
			return off, nil
		}
		body := make([]byte, int(dataLen)+4)
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil
		}
		data, crcBytes := body[:dataLen], body[dataLen:]
		crc := crc32.Checksum(hdr, crcTable)
		crc = crc32.Update(crc, crcTable, data)
		if crc != binary.LittleEndian.Uint32(crcBytes) {
			return off, nil // corrupt record: discard it and everything after
		}
		switch kind {
		case recPut:
			if err := s.MVCCStore.Put(loop, vertex, iter, data); err != nil {
				return 0, err
			}
		case recCheckpoint:
			if err := s.MVCCStore.Flush(loop, iter); err != nil {
				return 0, err
			}
		case recDropLoop:
			if err := s.MVCCStore.DropLoop(loop); err != nil {
				return 0, err
			}
		case recTruncate:
			if err := s.MVCCStore.Truncate(loop, iter); err != nil {
				return 0, err
			}
		default:
			return off, nil // unknown kind: torn/garbage tail
		}
		off += int64(recHeaderLen) + int64(dataLen) + 4
	}
}

func (s *DiskStore) append(kind byte, loop LoopID, vertex stream.VertexID, iter int64, data []byte) error {
	hdr := make([]byte, recHeaderLen)
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:9], uint64(loop))
	binary.LittleEndian.PutUint64(hdr[9:17], uint64(vertex))
	binary.LittleEndian.PutUint64(hdr[17:25], uint64(iter))
	binary.LittleEndian.PutUint32(hdr[25:29], uint32(len(data)))
	crc := crc32.Checksum(hdr, crcTable)
	crc = crc32.Update(crc, crcTable, data)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	if _, err := s.w.Write(hdr); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	if _, err := s.w.Write(data); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	if _, err := s.w.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	return nil
}

// Put implements Store.
func (s *DiskStore) Put(loop LoopID, vertex stream.VertexID, iteration int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recPut, loop, vertex, iteration, data); err != nil {
		return err
	}
	return s.MVCCStore.Put(loop, vertex, iteration, data)
}

// Flush implements Store: it records the checkpoint mark, flushes the
// buffered writer and fsyncs the log, making the checkpoint durable.
func (s *DiskStore) Flush(loop LoopID, upTo int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recCheckpoint, loop, 0, upTo, nil); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return s.MVCCStore.Flush(loop, upTo)
}

// Truncate implements Store: a truncation record is logged (and fsynced, so
// a crash during recovery cannot resurrect the truncated versions) and the
// index floor applied.
func (s *DiskStore) Truncate(loop LoopID, above int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recTruncate, loop, 0, above, nil); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush truncate: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("storage: fsync truncate: %w", err)
	}
	return s.MVCCStore.Truncate(loop, above)
}

// DropLoop implements Store: the drop is logged, then applied.
func (s *DiskStore) DropLoop(loop LoopID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(recDropLoop, loop, 0, 0, nil); err != nil {
		return err
	}
	return s.MVCCStore.DropLoop(loop)
}

// Close flushes buffers, closes the log file and then the index.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.MVCCStore.Close()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return fmt.Errorf("storage: flush on close: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("storage: fsync on close: %w", err)
	}
	return s.f.Close()
}

// Path returns the log file path.
func (s *DiskStore) Path() string { return s.path }

var _ Store = (*DiskStore)(nil)
