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
// Correctness rests on the key, not on expiry. Every entry is keyed by
// CacheKey — endpoint path ⊕ shard-plan epoch ⊕ canonical body — and
// every acknowledged admin write (append/retire fanned out by admin.go)
// bumps the epoch and flushes the cache. A request that starts after a
// write's HTTP response therefore computes a key no pre-write entry can
// ever match: stale answers are unreachable by construction, and the TTL
// is only a belt-and-suspenders bound for mutations that bypass the
// gateway entirely.
//
// The store is one LRU list under one mutex and the whole byte budget.

// cacheEntryOverhead approximates per-entry bookkeeping (map bucket, list
// element, header) charged to the byte budget beyond key+body.
const cacheEntryOverhead = 128

// Cache is a bounded-memory LRU over canonical query keys. All methods are
// safe for concurrent use.
type Cache struct {
	maxBytes int64
	ttl      time.Duration
	now      func() time.Time // injectable clock, for TTL tests

	mu    sync.Mutex
	bytes int64
	lru   *list.List // front = most recently used
	m     map[string]*list.Element

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheEntry struct {
	key     string
	body    []byte
	size    int64
	expires time.Time // zero: no TTL
}

// NewCache builds a cache with a total byte budget and a per-entry TTL;
// ttl <= 0 keeps entries until they are evicted or invalidated.
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{maxBytes: maxBytes, ttl: ttl, now: time.Now, lru: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached body for key, refreshing its recency. A present
// but expired entry is dropped (counted as an eviction) and misses.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if !ent.expires.IsZero() && c.now().After(ent.expires) {
		c.removeLocked(e)
		c.evictions.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits.Add(1)
	return ent.body, true
}

// Put stores body under key, evicting least-recently-used entries until
// the cache fits its budget. A body larger than the whole budget is not
// cached at all: it would not fit even in an empty cache.
func (c *Cache) Put(key string, body []byte) {
	size := int64(len(key)) + int64(len(body)) + cacheEntryOverhead
	if size > c.maxBytes {
		return
	}
	ent := &cacheEntry{key: key, body: body, size: size}
	if c.ttl > 0 {
		ent.expires = c.now().Add(c.ttl)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		// Replacement, not eviction: the key stays resident.
		c.removeLocked(e)
	}
	c.m[key] = c.lru.PushFront(ent)
	c.bytes += size
	for c.bytes > c.maxBytes { // the new entry alone fits: Back is never it
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// removeLocked unlinks one entry; c.mu must be held.
func (c *Cache) removeLocked(e *list.Element) {
	ent := e.Value.(*cacheEntry)
	c.lru.Remove(e)
	delete(c.m, ent.key)
	c.bytes -= ent.size
}

// Flush empties the cache — the write path's invalidation. The number of
// dropped entries is returned and added to the invalidations counter.
func (c *Cache) Flush() int {
	c.mu.Lock()
	n := len(c.m)
	c.lru.Init()
	clear(c.m)
	c.bytes = 0
	c.mu.Unlock()
	c.invalidations.Add(int64(n))
	return n
}

// Stats snapshots the cache counters for /stats.
func (c *Cache) Stats() CacheCounters {
	c.mu.Lock()
	entries, bytes := len(c.m), c.bytes
	c.mu.Unlock()
	return CacheCounters{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Bytes:         bytes,
		MaxBytes:      c.maxBytes,
		TTLSeconds:    c.ttl.Seconds(),
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
	return path + "\x00" + strconv.FormatUint(epoch, 10) + "\x00" + string(canon), nil
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
