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
// This package supplies the resident half of that design: a per-device
// cache of compressed column images. Entries are keyed by what fixes a
// column's content, not by pointer or name, because a join's output is a
// fresh set of row lists on every execution — two runs of the same query
// hold equal content in distinct slices. A base or computed column's key
// is its content hash (type, length, values, nulls), walked once and kept
// on the column; a column read through a join's lists is addressed by a
// provenance key, a mix of its source column's key, its side and the two
// key columns' keys per join, made in O(1) and without copying the
// column. Equal provenance is equal content, since columns are immutable
// and the probe is deterministic.
// Each entry owns its own device Reservation,
// so cached bytes are visible to the scheduler's admission control
// exactly like any kernel's working set; when a placement cannot be
// satisfied the engine purges the cache and retries, which keeps the
// cache strictly a performance layer — it can never make a query fail
// that would otherwise run. An image is accounted, not built: the kernels
// compute from host slices, so a fill is a reservation, a claim and an H2D
// transfer of DeviceBytes, and no packed copy of the column exists.
//
// A chain that spans the joins under its group-by also keeps each join's
// build side here: a device build table, the hash table over a dimension's
// key column, is one more entry, addressed by the key column's key mixed
// with the join predicate's identity (the predicate fixes the rows the
// table holds). It is filled, pinned, evicted and purged exactly like a
// column image and owns its reservation the same way, so it too is only a
// performance layer.
//
// Entries are pinned (refcounted) for the duration of a fused chain and
// evicted in strict least-recently-used order, tracked by a monotonic use
// sequence so eviction is deterministic run to run.
package fusion

import (
	"errors"
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

// Key addresses one column image, or one build table, by its content.
// Length and type ride along with the 64-bit column key so a collision
// would additionally need equal shape, and the length sizes the image
// (Bytes). A key needs no column: the engine keys a join's output by
// provenance without ever copying it.
type Key struct {
	H uint64
	N int
	T columnar.Type
	// Table marks a device build table of N rows (BuildKey).
	Table bool
}

// BuildKey addresses the device build table a join probes: the hash
// table over a dimension's integer key column, holding rows rows — those
// its join predicate keeps, or every row. h is the key column's
// Column.Key, mixed with the predicate's identity when there is one.
func BuildKey(h uint64, rows int) Key {
	return Key{H: h, N: rows, T: columnar.Int64, Table: true}
}

// Bytes is the device footprint of the image k addresses: DeviceBytes for
// a column; for a build table, two 8-byte slots a row (a key code and its
// row at a load factor of one half).
func (k Key) Bytes() int64 {
	if k.Table {
		return int64(k.N) * 16
	}
	return DeviceBytes(k.N)
}

// ColumnKey computes the cache address of a column: its type, its length
// and its Column.Key — the content hash, memoised on the column, for base
// and computed columns, or the provenance key of a join's output. Two
// columns with equal keys hold equal data. A base-table column is walked
// once per process; a join output is never walked. Callers key a chain's
// columns before they reach the cache, so concurrent chains do not
// serialise on a first hash behind Cache.mu.
func ColumnKey(col columnar.Column) Key {
	return Key{H: col.Key(), N: col.Len(), T: col.Type()}
}

// DeviceBytes is the device footprint of one cached column: BLU-style
// 4-byte codes packed two per 64-bit word, the same compressed width the
// staged path models for its uploads.
func DeviceBytes(rows int) int64 {
	return int64((rows+1)/2) * 8
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
	mu     sync.Mutex
	devs   map[int]*deviceCache
	seq    uint64
	stats  Stats
	model  *vtime.CostModel
	degree int
}

// NewCache returns an empty cache whose fills model prices at degree.
func NewCache(model *vtime.CostModel, degree int) *Cache {
	return &Cache{devs: make(map[int]*deviceCache), model: model, degree: degree}
}

func (c *Cache) deviceLocked(id int) *deviceCache {
	dc := c.devs[id]
	if dc == nil {
		dc = &deviceCache{entries: make(map[Key]*entry)}
		c.devs[id] = dc
	}
	return dc
}

// MissBytes reports how many H2D bytes a fused chain over the images
// keys address would have to upload on device devID right now — the
// fuse/decline policy's input. Resident columns cost nothing.
func (c *Cache) MissBytes(devID int, keys []Key) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := c.devs[devID]
	var miss int64
	for _, key := range keys {
		if dc != nil {
			if _, ok := dc.entries[key]; ok {
				continue
			}
		}
		miss += key.Bytes()
	}
	return miss
}

// FillTime is the time Ensure charges to fill the image key addresses:
// the copy into the pinned segment and its transfer from there. It is the
// one place that charge is written, so MissTime prices exactly what
// Ensure charges.
func (c *Cache) FillTime(key Key) vtime.Duration {
	bytes := key.Bytes()
	return c.model.HostCopy(bytes, c.degree) + c.model.Transfer(bytes, true)
}

// MissTime is the time Ensure would charge, right now, to fill the images
// keys address that are not resident on device devID.
func (c *Cache) MissTime(devID int, keys []Key) vtime.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	dc := c.devs[devID]
	var t vtime.Duration
	for _, key := range keys {
		if dc != nil {
			if _, ok := dc.entries[key]; ok {
				continue
			}
		}
		t += c.FillTime(key)
	}
	return t
}

// Lease pins a chain's column set on one device for the duration of a
// fused execution. Release unpins; the columns stay resident for the
// next chain until evicted.
type Lease struct {
	c       *Cache
	entries []*entry
	// Modeled is the time charged for the fills: the host copy into the
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
// returning the bytes it freed, 0 when nothing is evictable. lastUse is a
// process-wide monotonic sequence, so the victim — and therefore the whole
// run — is deterministic.
func (c *Cache) evictOneLocked(dc *deviceCache) int64 {
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
		return 0
	}
	delete(dc.entries, victim.key)
	victim.res.Release()
	c.stats.Evictions++
	return victim.bytes
}

// Ensure pins every image keys address on dev, uploading the ones not
// yet resident. Fills reserve through dev.ReserveSpan under sp, so cached
// bytes participate in admission control and the reserve/H2D events land
// on the fused chain's span. When the device is full, unpinned entries
// are evicted LRU-first before giving up with ErrNoRoom (decline — run
// staged); injected reserve/H2D faults propagate as-is (chain fault —
// spill and fall back). On error the lease is already unwound.
func (c *Cache) Ensure(dev *gpu.Device, keys []Key, sp trace.SpanID) (*Lease, error) {
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
	for _, key := range keys {
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
		bytes := key.Bytes()
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
			if c.evictOneLocked(dc) == 0 {
				return fail(ErrNoRoom)
			}
		}
		if err := res.Claim(bytes); err != nil {
			res.Release()
			return fail(err)
		}
		// The fill gathers the column into the registered segment like the
		// MEMCPY evaluator (host copy), then crosses PCIe once (FillTime).
		// This is the only charge for that gather: the engine hands a chain
		// its entry by key and copies nothing first.
		if _, err := res.CopyToDevice(bytes, true); err != nil {
			res.Release()
			return fail(err)
		}
		lease.Modeled += c.FillTime(key)
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
		for n := c.evictOneLocked(dc); n > 0; n = c.evictOneLocked(dc) {
			freed += n
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
