package shard

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Gateway result cache. The paper's filter-and-refine pipeline makes an
// answer expensive to compute and cheap to store, and gateway traffic is
// skewed toward hot queries, so the gateway keeps the merged response
// bytes of successful, undegraded answers and serves repeats without
// touching the fleet. The cache sits *behind* the single-flight group
// (flight.go): concurrent identical misses still collapse into one
// fan-out, whose leader populates the cache exactly once.
//
// Beside each merged answer the cache keeps its parts: every range's own
// 200-OK reply, keyed by path ⊕ canonical body (partKey) in a set of its
// range's own, and recording the range epoch it is current at and whether
// its kind carries across writes (findall, longest, filter) or not
// (nearest, /query/batch). A merged-answer miss asks only the ranges with
// no partial that answers and merges cached and fresh replies through the
// kind's reducer, so a write to one range costs the next read of a hot
// query at most one range's round trip, not the whole fleet's. A plan of
// one range keeps no partials: its merged answer is its only part.
//
// Correctness rests on the keys, the epochs and the range's write log, not
// on expiry. A merged answer is keyed by CacheKey — endpoint path ⊕
// shard-plan epoch ⊕ canonical body. Every acknowledged admin write
// (append/retire fanned out by admin.go) moves the written range's epoch
// and logs the write, drops the range's partials that do not carry, then
// bumps the plan epoch and flushes every merged answer; the other ranges'
// partials stay, and so do the written range's carrying ones, which a
// later read carries through the logged writes or asks again (admin.go
// rangeState.carry). A request that starts after a write's HTTP response
// therefore computes keys no pre-write merged answer can match, and reads
// no pre-write partial of the written range without carrying it through
// the write: stale answers are unreachable by construction.
//
// The TTL bounds staleness from mutations that bypass the gateway entirely
// (a shard's own TTL sweep, a write posted straight to a replica): no entry
// outlives the TTL counted from when the oldest shard reply it holds was
// computed. A partial carried forward keeps the expiry of the one it was
// carried from, and a merged answer expires with the earliest of its parts.
//
// The store is one LRU list under one mutex and the whole byte budget,
// shared by merged answers and partials; each keeps its own counters.

// cacheEntryOverhead approximates per-entry bookkeeping (map bucket, list
// element, header) charged to the byte budget beyond key+body.
const cacheEntryOverhead = 128

// Cache is a bounded-memory LRU over canonical query keys: merged answers
// (Get/Put/Flush) and per-range partials (GetPart/PutPart/DropRange) in one
// byte budget. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time // injectable clock, for TTL tests

	mu    sync.Mutex
	bytes int64      // merged answers and partials together
	lru   *list.List // front = most recently used
	// sets[0] holds the merged answers, sets[r+1] range r's partials.
	sets []entrySet

	merged, parts cacheTally
}

// entrySet is one class of entries: the merged answers, or one range's
// partials.
type entrySet struct {
	m     map[string]*list.Element
	bytes int64
	// floor is the epoch of the set's last drop: a put of an entry the drop
	// would have taken, computed under an older epoch, raced the write that
	// dropped it and is refused.
	floor uint64
}

// cacheTally is one class's traffic counters. forwarded and deltas count
// the partials' hits that carried an entry across writes (countPart).
type cacheTally struct {
	hits, misses, evictions, invalidations atomic.Int64
	forwarded, deltas                      atomic.Int64
}

type cacheEntry struct {
	key     string
	body    []byte
	size    int64
	set     int       // index into Cache.sets
	epoch   uint64    // the range epoch a partial is current at
	carries bool      // a partial a write leaves for reads to carry forward
	expires time.Time // zero: no TTL
}

// NewCache builds a cache with a total byte budget and a per-entry TTL;
// ttl <= 0 keeps entries until they are evicted or invalidated.
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{maxBytes: maxBytes, ttl: ttl, now: time.Now, lru: list.New(), sets: make([]entrySet, 1)}
}

// Get returns the merged answer cached under key, refreshing its recency.
// A present but expired entry is dropped (counted as an eviction) and
// misses.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.lookupLocked(0, key)
	if ent == nil {
		c.merged.misses.Add(1)
		return nil, false
	}
	c.merged.hits.Add(1)
	return ent.body, true
}

// Put stores a merged answer under key, evicting least-recently-used
// entries until the cache fits its budget. A body larger than the whole
// budget is not cached at all: it would not fit even in an empty cache.
func (c *Cache) Put(key string, body []byte) { c.put(0, partRef{key: key}, body) }

// putMerged is Put for a merged answer that holds a partial expiring at
// expires (zero: none does): the answer expires no later.
func (c *Cache) putMerged(key string, expires time.Time, body []byte) {
	c.put(0, partRef{key: key, expires: expires}, body)
}

// Flush drops every merged answer — the write path's invalidation of
// them. The number of dropped entries is returned and added to the
// invalidations counter; partials are left alone.
func (c *Cache) Flush() int { return c.drop(0, 0) }

// GetPart returns range ri's partial under key (partKey): its body, the
// range epoch it is current at and when it expires (zero: never),
// refreshing its recency. It counts nothing: whether the entry answers a
// read is known only against the range's epoch and write log, and the
// gateway reports that through countPart.
func (c *Cache) GetPart(ri int, key string) (body []byte, epoch uint64, expires time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent := c.lookupLocked(ri+1, key); ent != nil {
		return ent.body, ent.epoch, ent.expires, true
	}
	return nil, 0, time.Time{}, false
}

// PutPart stores body as range ri's partial under p.key, current at
// p.epoch; p.carries says whether a write leaves it for later reads to
// carry forward. It expires no later than p.expires, when set: a partial
// carried forward holds shard replies as old as the one it was carried
// from. A put never replaces an entry current at a newer epoch, and one
// that does not carry, computed under an epoch a DropRange has passed, is
// not stored.
func (c *Cache) PutPart(ri int, p partRef, body []byte) { c.put(ri+1, p, body) }

// DropRange drops range ri's partials that do not carry across writes —
// the write path's invalidation of them — and refuses later such puts
// computed under an epoch below epoch, the range's new one. The carrying
// partials stay. The number of dropped entries is returned and added to the
// partials' invalidations counter.
func (c *Cache) DropRange(ri int, epoch uint64) int { return c.drop(ri+1, epoch) }

// partUse is how a read used a range's partial.
type partUse int

const (
	partMiss    partUse = iota // none that answers: the range is asked in full
	partCurrent                // current at the read's epoch
	partForward                // carried across writes that change nothing it holds
	partDelta                  // carried with a scoped ask over the sequences appended since
)

// countPart counts one read's use of a range's partial.
func (c *Cache) countPart(u partUse) {
	switch u {
	case partMiss:
		c.parts.misses.Add(1)
		return
	case partForward:
		c.parts.forwarded.Add(1)
	case partDelta:
		c.parts.deltas.Add(1)
	}
	c.parts.hits.Add(1)
}

// tally returns the counters of set s.
func (c *Cache) tally(s int) *cacheTally {
	if s == 0 {
		return &c.merged
	}
	return &c.parts
}

// setLocked returns set s, growing the set list to reach it; c.mu must be
// held.
func (c *Cache) setLocked(s int) *entrySet {
	for len(c.sets) <= s {
		c.sets = append(c.sets, entrySet{})
	}
	set := &c.sets[s]
	if set.m == nil {
		set.m = make(map[string]*list.Element)
	}
	return set
}

// lookupLocked returns set s's entry under key, refreshing its recency, or
// nil; a present but expired entry is dropped (counted as an eviction).
// c.mu must be held.
func (c *Cache) lookupLocked(s int, key string) *cacheEntry {
	e, ok := c.setLocked(s).m[key]
	if !ok {
		return nil
	}
	ent := e.Value.(*cacheEntry)
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		c.removeLocked(e)
		c.tally(s).evictions.Add(1)
		return nil
	}
	c.lru.MoveToFront(e)
	return ent
}

// put stores body in set s under p.key (see PutPart).
func (c *Cache) put(s int, p partRef, body []byte) {
	size := int64(len(p.key)) + int64(len(body)) + cacheEntryOverhead
	if size > c.maxBytes {
		return
	}
	ent := &cacheEntry{key: p.key, body: body, size: size, set: s, epoch: p.epoch, carries: p.carries}
	if c.ttl > 0 {
		ent.expires = c.now().Add(c.ttl)
		if !p.expires.IsZero() && p.expires.Before(ent.expires) {
			ent.expires = p.expires
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setLocked(s)
	if !p.carries && p.epoch < set.floor {
		return
	}
	if e, ok := set.m[p.key]; ok {
		if e.Value.(*cacheEntry).epoch > p.epoch {
			return
		}
		// Replacement, not eviction: the key stays resident.
		c.removeLocked(e)
	}
	set.m[p.key] = c.lru.PushFront(ent)
	set.bytes += size
	c.bytes += size
	for c.bytes > c.maxBytes { // the new entry alone fits: Back is never it
		back := c.lru.Back()
		c.tally(back.Value.(*cacheEntry).set).evictions.Add(1)
		c.removeLocked(back)
	}
}

// removeLocked unlinks one entry; c.mu must be held.
func (c *Cache) removeLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	set := &c.sets[ent.set]
	c.lru.Remove(e)
	delete(set.m, ent.key)
	set.bytes -= ent.size
	c.bytes -= ent.size
}

// drop empties set s of every entry that does not carry across writes and
// raises its floor to epoch, counting the dropped entries as
// invalidations.
func (c *Cache) drop(s int, epoch uint64) int {
	c.mu.Lock()
	set := c.setLocked(s)
	n := 0
	for _, e := range set.m {
		if !e.Value.(*cacheEntry).carries {
			c.removeLocked(e)
			n++
		}
	}
	set.floor = max(set.floor, epoch)
	c.mu.Unlock()
	c.tally(s).invalidations.Add(int64(n))
	return n
}

// Stats snapshots the merged answers' counters for /stats; MaxBytes is
// the whole budget, which the partials share.
func (c *Cache) Stats() CacheCounters {
	c.mu.Lock()
	entries, bytes := len(c.sets[0].m), c.sets[0].bytes
	c.mu.Unlock()
	return CacheCounters{
		Hits:          c.merged.hits.Load(),
		Misses:        c.merged.misses.Load(),
		Evictions:     c.merged.evictions.Load(),
		Invalidations: c.merged.invalidations.Load(),
		Entries:       entries,
		Bytes:         bytes,
		MaxBytes:      c.maxBytes,
		TTLSeconds:    c.ttl.Seconds(),
	}
}

// PartStats snapshots the partials' counters for /stats (Epochs is the
// gateway's to fill).
func (c *Cache) PartStats() PartialCounters {
	c.mu.Lock()
	var entries int
	var bytes int64
	for _, set := range c.sets[1:] {
		entries += len(set.m)
		bytes += set.bytes
	}
	c.mu.Unlock()
	return PartialCounters{
		Hits:          c.parts.hits.Load(),
		Misses:        c.parts.misses.Load(),
		Evictions:     c.parts.evictions.Load(),
		Invalidations: c.parts.invalidations.Load(),
		Forwarded:     c.parts.forwarded.Load(),
		Deltas:        c.parts.deltas.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}

// --- canonical cache keys ---

// CacheKey builds the cache's canonical key for one query: endpoint path
// ⊕ shard-plan epoch ⊕ the canonical JSON rendering of the request body.
// Two requests share a key iff they ask the same question of the same
// plan generation — the path pins the query kind, the epoch pins the
// mutation generation (admin.go bumps it on every acknowledged write),
// and the canonical body pins ε and the query sequence while erasing
// formatting noise (object key order, whitespace). The encoding is
// injective on decoded values — distinct queries never collide (number
// literals are kept verbatim, so 1 and 1.0 stay distinct instead of
// merging through a float; JSON null, "" and [] all stay distinct) — and
// deterministic across processes and sessions: no map iteration order,
// nothing time- or address-dependent. The NUL separators cannot occur
// inside any part: paths are fixed ASCII routes, the epoch is decimal,
// and canonical JSON escapes control characters. A body that is not
// exactly one JSON value cannot be canonicalised and returns an error;
// the gateway then bypasses the cache for that request.
func CacheKey(path string, epoch uint64, body []byte) (string, error) {
	canon, err := canonicalJSON(body)
	if err != nil {
		return "", err
	}
	return mergedKey(path, epoch, string(canon)), nil
}

// mergedKey is CacheKey over a body already canonicalised.
func mergedKey(path string, epoch uint64, canon string) string {
	return path + "\x00" + strconv.FormatUint(epoch, 10) + "\x00" + canon
}

// partKey keys a range's partial of one query: path ⊕ canonical body, with
// no epoch, since the entry records the epoch it is current at. Each range
// keeps its partials in a set of their own.
func partKey(path, canon string) string { return path + "\x00" + canon }

// canonicalJSON re-encodes one JSON value deterministically: object keys
// sorted, no insignificant whitespace, number literals preserved verbatim
// (UseNumber — no float round-trip). Duplicate object keys collapse
// last-wins, exactly as encoding/json decodes them on the serve side, so
// bodies the shards cannot tell apart share a key.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after JSON value")
	}
	var b bytes.Buffer
	if err := writeCanonical(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeCanonical(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		if x {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case json.Number:
		b.WriteString(string(x))
	case string:
		enc, err := json.Marshal(x)
		if err != nil {
			return err
		}
		b.Write(enc)
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			enc, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.Write(enc)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("unexpected decoded JSON type %T", v)
	}
	return nil
}
