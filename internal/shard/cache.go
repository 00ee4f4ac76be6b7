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
// 200-OK reply, keyed by path ⊕ range index ⊕ that range's epoch ⊕
// canonical body (partialKey). A merged-answer miss asks only the ranges
// with no partial and merges cached and fresh replies through the kind's
// reducer, so a write to one range costs the next read of a hot query one
// range's round trip, not the whole fleet's. A plan of one range keeps no
// partials: its merged answer is its only part.
//
// Correctness rests on the keys, not on expiry. A merged answer is keyed
// by CacheKey — endpoint path ⊕ shard-plan epoch ⊕ canonical body — and a
// partial by its range's epoch. Every acknowledged admin write
// (append/retire fanned out by admin.go) bumps the written range's epoch
// and drops its partials, then bumps the plan epoch and flushes every
// merged answer; the other ranges' partials stay. A request that
// starts after a write's HTTP response therefore computes keys no
// pre-write entry of the written range can ever match: stale answers are
// unreachable by construction, and the TTL is only a belt-and-suspenders
// bound for mutations that bypass the gateway entirely.
//
// The store is one LRU list under one mutex and the whole byte budget,
// shared by merged answers and partials; each keeps its own counters.

// cacheEntryOverhead approximates per-entry bookkeeping (map bucket, list
// element, header) charged to the byte budget beyond key+body.
const cacheEntryOverhead = 128

// Cache is a bounded-memory LRU over canonical query keys: merged answers
// (Get/Put/Flush) and per-range partials (GetPart/PutPart/DropRange) in
// one byte budget. All methods are safe for concurrent use.
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
	// floor is the epoch of the set's last drop: a put computed under an
	// older epoch raced the write that dropped it and is refused.
	floor uint64
}

// cacheTally is one class's traffic counters.
type cacheTally struct {
	hits, misses, evictions, invalidations atomic.Int64
}

type cacheEntry struct {
	key     string
	body    []byte
	size    int64
	set     int       // index into Cache.sets
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
func (c *Cache) Get(key string) ([]byte, bool) { return c.get(0, key) }

// Put stores a merged answer under key, evicting least-recently-used
// entries until the cache fits its budget. A body larger than the whole
// budget is not cached at all: it would not fit even in an empty cache.
func (c *Cache) Put(key string, body []byte) { c.put(0, 0, key, body) }

// Flush drops every merged answer — the write path's invalidation of
// them. The number of dropped entries is returned and added to the
// invalidations counter; partials are left alone.
func (c *Cache) Flush() int { return c.drop(0, 0) }

// GetPart is Get for range ri's partial under key.
func (c *Cache) GetPart(ri int, key string) ([]byte, bool) { return c.get(ri+1, key) }

// PutPart is Put for range ri's partial under key, computed under the
// range's epoch: a partial whose epoch a DropRange has passed is not
// stored.
func (c *Cache) PutPart(ri int, epoch uint64, key string, body []byte) { c.put(ri+1, epoch, key, body) }

// DropRange drops every partial of range ri — the write path's
// invalidation of them — and refuses later puts computed under an epoch
// below epoch, the range's new one. The number of dropped entries is
// returned and added to the partials' invalidations counter.
func (c *Cache) DropRange(ri int, epoch uint64) int { return c.drop(ri+1, epoch) }

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

func (c *Cache) get(s int, key string) ([]byte, bool) {
	t := c.tally(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.setLocked(s).m[key]
	if !ok {
		t.misses.Add(1)
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		c.removeLocked(e)
		t.evictions.Add(1)
		t.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e)
	t.hits.Add(1)
	return ent.body, true
}

func (c *Cache) put(s int, epoch uint64, key string, body []byte) {
	size := int64(len(key)) + int64(len(body)) + cacheEntryOverhead
	if size > c.maxBytes {
		return
	}
	ent := &cacheEntry{key: key, body: body, size: size, set: s}
	if c.ttl > 0 {
		ent.expires = c.now().Add(c.ttl)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.setLocked(s)
	if epoch < set.floor {
		return
	}
	if e, ok := set.m[key]; ok {
		// Replacement, not eviction: the key stays resident.
		c.removeLocked(e)
	}
	set.m[key] = c.lru.PushFront(ent)
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

// drop empties set s and raises its floor to epoch, counting the dropped
// entries as invalidations.
func (c *Cache) drop(s int, epoch uint64) int {
	c.mu.Lock()
	set := c.setLocked(s)
	n := len(set.m)
	for _, e := range set.m {
		c.removeLocked(e)
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

// partialKey keys range ri's partial of one query: path ⊕ range index ⊕
// the range's epoch ⊕ canonical body. The middle part, "<ri>:<epoch>",
// is never a merged key's decimal epoch.
func partialKey(path string, ri int, epoch uint64, canon string) string {
	return path + "\x00" + strconv.Itoa(ri) + ":" + strconv.FormatUint(epoch, 10) + "\x00" + canon
}

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
