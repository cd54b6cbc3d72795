// disk.go is the disk tier: a content-addressed directory of encoded
// entries that survives restarts. It follows the discipline proven in
// internal/backend's artifact store — atomic temp-file + rename
// writes keyed by content hash, so several processes can share one
// directory without locks: a reader either sees a complete envelope
// or no file at all, and two writers racing on one key write the same
// bytes — the codec is deterministic (maps in key order, tables in
// first-use order; TestEncodeDeterministic), which the gob body it
// replaced was not.
//
// Corruption (a truncated or bit-flipped file, detected by the
// envelope checksum; a file in an older envelope format, detected by
// its magic) is treated as a miss: the offending file is deleted so the
// next successful compute repairs the slot. That is the whole upgrade
// path of a cache directory: no migration, one recompile per key.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/ccache"
)

// DirEnv overrides the default cache-store location for zpld.
const DirEnv = "ZPL_CACHE_DIR"

// diskExt is the entry-file suffix; anything else in the directory is
// ignored (temp files in flight, stray editor droppings).
const diskExt = ".zpe"

// DiskStats counts the disk tier's activity.
type DiskStats struct {
	Hits    int64 // reads that decoded a valid envelope
	Misses  int64 // reads with no file present
	Corrupt int64 // reads that found and deleted an invalid file
	Puts    int64 // successful writes
	Errors  int64 // read or write I/O failures
	Entries int64 // resident entry files
	Bytes   int64 // resident entry bytes
}

// Disk is a disk-backed content-addressed entry store rooted at one
// directory. All methods are safe for concurrent use; multiple
// processes may share a directory.
type Disk struct {
	dir string

	mu    sync.Mutex
	stats DiskStats
}

// OpenDisk creates (if needed) and opens a disk store, scanning the
// directory once to seed the entry/byte gauges.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk: %w", err)
	}
	d := &Disk{dir: dir}
	// Seed the gauges from what a previous process left behind. The
	// walk tolerates concurrent writers: gauges are advisory.
	filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, diskExt) {
			return nil
		}
		if fi, err := de.Info(); err == nil {
			d.stats.Entries++
			d.stats.Bytes += fi.Size()
		}
		return nil
	})
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Stats snapshots the counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// path shards entries by the first hash byte so no single directory
// grows unboundedly.
func (d *Disk) path(k ccache.Key) string {
	hex := k.String()
	return filepath.Join(d.dir, hex[:2], hex+diskExt)
}

// GetRaw reads the encoded envelope for k without decoding — the read
// used to serve a peer /store/get, which relays bytes verbatim. The
// checksum is NOT verified here; the receiving end decodes (and
// verifies) anyway, so verifying twice buys nothing.
func (d *Disk) GetRaw(k ccache.Key) ([]byte, bool) {
	raw, err := os.ReadFile(d.path(k))
	if err != nil {
		d.mu.Lock()
		if os.IsNotExist(err) {
			d.stats.Misses++
		} else {
			d.stats.Errors++
		}
		d.mu.Unlock()
		return nil, false
	}
	return raw, true
}

// read is GetRaw plus the integrity gate both decoding readers share: a
// file that fails check is deleted and reported as a miss, so the next
// successful compute repairs the slot.
func (d *Disk) read(k ccache.Key, check func(raw []byte) error) ([]byte, bool) {
	raw, ok := d.GetRaw(k)
	if !ok {
		return nil, false
	}
	err := check(raw)
	d.mu.Lock()
	if err != nil {
		d.stats.Corrupt++
		d.stats.Entries--
		d.stats.Bytes -= int64(len(raw))
	} else {
		d.stats.Hits++
	}
	d.mu.Unlock()
	if err != nil {
		os.Remove(d.path(k))
	}
	return raw, err == nil
}

// GetRawVerified reads the envelope for k and checks its checksum
// without a full decode — the read used to serve a peer from disk,
// where corrupt bytes must not be relayed.
func (d *Disk) GetRawVerified(k ccache.Key) ([]byte, bool) { return d.read(k, Verify) }

// Get reads and decodes the entry for k.
func (d *Disk) Get(k ccache.Key) (e *ccache.Entry, ok bool) {
	_, ok = d.read(k, func(raw []byte) (err error) {
		e, err = Decode(raw)
		return err
	})
	return e, ok
}

// PutRaw writes an already-encoded envelope under k, atomically. An
// existing file is left alone — entries are content-addressed, so a
// resident file is already the right bytes and rewriting it only
// churns the disk.
func (d *Disk) PutRaw(k ccache.Key, raw []byte) error {
	path := d.path(k)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		d.mu.Lock()
		d.stats.Errors++
		d.mu.Unlock()
		return fmt.Errorf("store: disk: %w", err)
	}
	if err := AtomicWrite(path, raw); err != nil {
		d.mu.Lock()
		d.stats.Errors++
		d.mu.Unlock()
		return fmt.Errorf("store: disk: %w", err)
	}
	d.mu.Lock()
	d.stats.Puts++
	d.stats.Entries++
	d.stats.Bytes += int64(len(raw))
	d.mu.Unlock()
	return nil
}

// AtomicWrite writes data to path through a temp file of its own in
// the same directory and a rename: a reader finds the old file, the new
// one or none, never a partial one. The temp name is unique per call,
// so writers racing on one path — two processes, or two goroutines of
// one (peers that both compiled a key both publish it) — never share an
// inode; the last rename wins. The temp file is removed on any failure.
func AtomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide the file from a process sharing the directory
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Put encodes and writes the entry under k.
func (d *Disk) Put(k ccache.Key, e *ccache.Entry) error {
	raw, err := Encode(e)
	if err != nil {
		return err
	}
	return d.PutRaw(k, raw)
}
