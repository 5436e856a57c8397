// Package fusion implements the device-resident column cache behind the
// engine's fused data path.
//
// The paper's prototype (and the reproduction's staged path) ships every
// group-by's input across PCIe on every execution: the MEMCPY evaluator
// stages into pinned host memory, the moderator uploads, the kernel runs,
// and the reservation is torn down — so the next query over the same
// columns pays the full transfer again. The related work the ROADMAP
// points at (data-path fusion, device-resident processing) gets its win
// largely by keeping operator inputs and intermediates on the device.
//
// This package supplies the resident half of that design: a per-device,
// content-addressed cache of compressed column images. Entries are keyed
// by column *content* (type, length, values, nulls), not by pointer or
// name, because the engine's late-materialization gathers rebuild column
// vectors on every execution — two runs of the same query produce equal
// content in distinct slices. Each entry owns its own device Reservation,
// so cached bytes are visible to the scheduler's admission control
// exactly like any kernel's working set; when a placement cannot be
// satisfied the engine purges the cache and retries, which keeps the
// cache strictly a performance layer — it can never make a query fail
// that would otherwise run.
//
// Entries are pinned (refcounted) for the duration of a fused chain and
// evicted in strict least-recently-used order, tracked by a monotonic use
// sequence so eviction is deterministic run to run.
package fusion

import (
	"errors"
	"math"
	"sync"

	"blugpu/internal/columnar"
	"blugpu/internal/gpu"
	"blugpu/internal/trace"
	"blugpu/internal/vtime"
)

// ErrNoRoom is returned by Ensure when the device cannot hold a missing
// column even after evicting every unpinned entry. The caller declines
// fusion and falls back to the staged path; it is an admission outcome,
// not a fault.
var ErrNoRoom = errors.New("fusion: no device memory for column upload")

// Key addresses one column image by content. Length and type ride along
// with the 64-bit content hash so a collision would additionally need
// equal shape.
type Key struct {
	H uint64
	N int
	T columnar.Type
}

// ColumnKey computes the content address of a column: type, length, every
// value, every null position, and (for strings) the dictionary. Two
// columns with equal keys hold equal data regardless of which gather or
// scan produced them. The hash is memoised on the column, so a base-table
// column is walked once per process and a gathered one once per query.
func ColumnKey(col columnar.Column) Key {
	return Key{H: col.ContentHash(), N: col.Len(), T: col.Type()}
}

// columnKeys addresses every column of a chain. Callers run it before
// taking Cache.mu: the first hash of a column walks every value, and
// concurrent chains must not serialise on that.
func columnKeys(cols []columnar.Column) []Key {
	keys := make([]Key, len(cols))
	for i, col := range cols {
		keys[i] = ColumnKey(col)
	}
	return keys
}

// DeviceBytes is the device footprint of one cached column: BLU-style
// 4-byte codes packed two per 64-bit word, the same compressed width the
// staged path models for its uploads.
func DeviceBytes(rows int) int64 {
	return int64((rows+1)/2) * 8
}

// Pack renders a column into its device image: 4-byte codes, two per
// word. NULLs pack as the all-ones code. Kernels never read these words
// (the simulation computes from host slices); the image exists so the
// transfer engine moves — and accounts — real data.
func Pack(col columnar.Column) []uint64 {
	n := col.Len()
	words := make([]uint64, (n+1)/2)
	put := func(i int, code uint32) {
		words[i/2] |= uint64(code) << (uint(i%2) * 32)
	}
	switch c := col.(type) {
	case *columnar.Int64Column:
		for i, v := range c.Data() {
			if c.IsNull(i) {
				put(i, 0xFFFFFFFF)
			} else {
				put(i, uint32(v))
			}
		}
	case *columnar.Float64Column:
		for i, v := range c.Data() {
			if c.IsNull(i) {
				put(i, 0xFFFFFFFF)
			} else {
				put(i, uint32(math.Float64bits(v)>>32))
			}
		}
	case *columnar.StringColumn:
		for i, code := range c.Codes() {
			if c.IsNull(i) {
				put(i, 0xFFFFFFFF)
			} else {
				put(i, uint32(code))
			}
		}
	}
	return words
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	SavedBytes    int64 // H2D bytes avoided by residency
	UploadedBytes int64 // H2D bytes actually moved by cache fills
}

// entry is one resident column image. The reservation is the entry's
// claim on device memory; releasing it is eviction.
type entry struct {
	key     Key
	bytes   int64
	res     *gpu.Reservation
	pins    int
	lastUse uint64
}

type deviceCache struct {
	entries map[Key]*entry
}

// Cache is the engine-wide device-resident column cache. Safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	devs  map[int]*deviceCache
	seq   uint64
	stats Stats
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{devs: make(map[int]*deviceCache)}
}

func (c *Cache) deviceLocked(id int) *deviceCache {
	dc := c.devs[id]
	if dc == nil {
		dc = &deviceCache{entries: make(map[Key]*entry)}
		c.devs[id] = dc
	}
	return dc
}

// MissBytes reports how many H2D bytes a fused chain over cols would
// have to upload on device devID right now — the fuse/decline policy's
// input. Resident columns cost nothing.
func (c *Cache) MissBytes(devID int, cols []columnar.Column) int64 {
	keys := columnKeys(cols)
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := c.devs[devID]
	var miss int64
	for i, col := range cols {
		if dc != nil {
			if _, ok := dc.entries[keys[i]]; ok {
				continue
			}
		}
		miss += DeviceBytes(col.Len())
	}
	return miss
}

// Lease pins a chain's column set on one device for the duration of a
// fused execution. Release unpins; the columns stay resident for the
// next chain until evicted.
type Lease struct {
	c       *Cache
	entries []*entry
	// Modeled is the time charged for the fills: host packing into the
	// pinned segment plus the PCIe transfers. Hits charge nothing.
	Modeled vtime.Duration
	// Uploaded and Saved split the chain's input bytes into moved vs
	// avoided-by-residency.
	Uploaded int64
	Saved    int64
}

// Release unpins the lease's entries. Idempotent.
func (l *Lease) Release() {
	if l == nil || l.c == nil {
		return
	}
	l.c.mu.Lock()
	for _, e := range l.entries {
		if e.pins > 0 {
			e.pins--
		}
	}
	l.c.mu.Unlock()
	l.entries = nil
	l.c = nil
}

// evictOneLocked drops the least-recently-used unpinned entry on dc,
// returning false when nothing is evictable. lastUse is a process-wide
// monotonic sequence, so the victim — and therefore the whole run — is
// deterministic.
func (c *Cache) evictOneLocked(dc *deviceCache) bool {
	var victim *entry
	for _, e := range dc.entries {
		if e.pins > 0 {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	if victim == nil {
		return false
	}
	delete(dc.entries, victim.key)
	victim.res.Release()
	c.stats.Evictions++
	return true
}

// Ensure pins every column of cols on dev, uploading the ones not yet
// resident. Fills reserve through dev.ReserveSpan under sp, so cached
// bytes participate in admission control and the reserve/H2D events land
// on the fused chain's span. When the device is full, unpinned entries
// are evicted LRU-first before giving up with ErrNoRoom (decline — run
// staged); injected reserve/H2D faults propagate as-is (chain fault —
// spill and fall back). On error the lease is already unwound.
func (c *Cache) Ensure(dev *gpu.Device, cols []columnar.Column, sp trace.SpanID, model *vtime.CostModel, pinned bool, degree int) (*Lease, error) {
	keys := columnKeys(cols)
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := c.deviceLocked(dev.ID())
	lease := &Lease{c: c}
	fail := func(err error) (*Lease, error) {
		for _, e := range lease.entries {
			if e.pins > 0 {
				e.pins--
			}
		}
		return nil, err
	}
	for i, col := range cols {
		key := keys[i]
		if e, ok := dc.entries[key]; ok {
			c.seq++
			e.lastUse = c.seq
			e.pins++
			lease.entries = append(lease.entries, e)
			lease.Saved += e.bytes
			c.stats.Hits++
			c.stats.SavedBytes += e.bytes
			continue
		}
		words := Pack(col)
		bytes := int64(len(words)) * 8
		var res *gpu.Reservation
		for {
			var err error
			res, err = dev.ReserveSpan(bytes, sp)
			if err == nil {
				break
			}
			if errors.Is(err, gpu.ErrInjected) {
				return fail(err)
			}
			if !c.evictOneLocked(dc) {
				return fail(ErrNoRoom)
			}
		}
		buf, err := res.AllocWords(len(words))
		if err != nil {
			res.Release()
			return fail(err)
		}
		// The fill stages through the registered segment like the MEMCPY
		// evaluator (host copy), then crosses PCIe once.
		t, err := dev.CopyToDevice(buf, words, pinned)
		if err != nil {
			res.Release()
			return fail(err)
		}
		lease.Modeled += model.HostCopy(bytes, degree) + t
		c.seq++
		e := &entry{key: key, bytes: bytes, res: res, pins: 1, lastUse: c.seq}
		dc.entries[key] = e
		lease.entries = append(lease.entries, e)
		lease.Uploaded += bytes
		c.stats.Misses++
		c.stats.UploadedBytes += bytes
	}
	return lease, nil
}

// PurgeAll evicts every unpinned entry on every device, returning the
// bytes freed. The engine calls it when a placement fails, so resident
// columns yield to live queries instead of starving them.
func (c *Cache) PurgeAll() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for _, dc := range c.devs {
		for {
			var victim *entry
			for _, e := range dc.entries {
				if e.pins > 0 {
					continue
				}
				if victim == nil || e.lastUse < victim.lastUse {
					victim = e
				}
			}
			if victim == nil {
				break
			}
			delete(dc.entries, victim.key)
			victim.res.Release()
			c.stats.Evictions++
			freed += victim.bytes
		}
	}
	return freed
}

// Resident returns the number of entries and bytes currently cached on
// device devID.
func (c *Cache) Resident(devID int) (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := c.devs[devID]
	if dc == nil {
		return 0, 0
	}
	for _, e := range dc.entries {
		entries++
		bytes += e.bytes
	}
	return entries, bytes
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
