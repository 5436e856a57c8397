package qlog

import (
	"fmt"
	"os"
	"sync"
)

// Config bounds the on-disk query log. Zero values mean unbounded: no
// rotation, one ever-growing file (the pre-rotation behavior).
type Config struct {
	// MaxBytes rotates the file before a write would push it past this
	// size. Rotation happens only at whole-record boundaries — the
	// Logger writes exactly one record per Write call — so every
	// generation is independently Decode-clean.
	MaxBytes int64
	// Keep is how many rotated generations to retain (path.1 newest …
	// path.Keep oldest). 0 defaults to 3 when MaxBytes is set.
	Keep int
}

// File is a size-capped rotating log sink: the io.Writer handed to
// qlog.New for sustained serve runs, where an unbounded log would grow
// without limit. Safe for concurrent use (the Logger serializes writes
// anyway, but File guards itself for direct users).
type File struct {
	mu   sync.Mutex
	path string
	cfg  Config
	f    *os.File
	size int64
	rots uint64
}

// OpenFile opens (creating or appending) a rotating log file at path.
func OpenFile(path string, cfg Config) (*File, error) {
	if cfg.MaxBytes > 0 && cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{path: path, cfg: cfg, f: f, size: st.Size()}, nil
}

// Write appends one record line, rotating first when the line would
// push the live file past MaxBytes. A single record larger than
// MaxBytes still writes whole — records are never split across
// generations.
func (w *File) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cfg.MaxBytes > 0 && w.size > 0 && w.size+int64(len(p)) > w.cfg.MaxBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotateLocked shifts path.(k-1)→path.k … path→path.1 and reopens a
// fresh live file, dropping the oldest generation past Keep.
func (w *File) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	os.Remove(fmt.Sprintf("%s.%d", w.path, w.cfg.Keep))
	for i := w.cfg.Keep - 1; i >= 1; i-- {
		os.Rename(fmt.Sprintf("%s.%d", w.path, i), fmt.Sprintf("%s.%d", w.path, i+1))
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.size = 0
	w.rots++
	return nil
}

// Rotations reports how many times the live file has rotated.
func (w *File) Rotations() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rots
}

// Close closes the live file.
func (w *File) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
