// Package serve turns the stateless compilation engine into a long-running
// compilation service: compiled artifacts are stored in a size-bounded,
// content-addressed LRU cache keyed by pipeline.Compiler.Fingerprint,
// concurrent identical requests are collapsed onto one underlying solve,
// and an admission queue bounds how many cold compilations run at once.
// cmd/xtalkd wraps the Server in an HTTP daemon (/compile, /stats,
// /healthz); cmd/xtalksched -serve is the matching client.
package serve

import (
	"container/list"
	"crypto/sha256"
	"strconv"
	"sync"

	"xtalk/internal/pipeline"
)

// The memory tier. One LRU keyed by content fingerprint, under one byte
// budget, holds everything a warm request needs:
//
//   - the compiled artifact (nil for a reply replicated from a peer);
//   - the steady-state reply: the CompileResponse a repeat request gets,
//     fully encoded, without a tag — the tag is spliced in at write time,
//     so one copy serves every client;
//   - the peer-hit count that decides when a non-owner replicates a
//     proxied reply;
//   - the memo keys — hashes of resolved request identities (device spec,
//     seed, day and verbatim source) — that skip parse, canonicalize and
//     hash on a repeat. They are charged to the budget and dropped with the
//     entry.
//
// Keys are content addresses, so there is no invalidation problem: a
// different device day, config or circuit is a different key, and an epoch
// flip changes the resolved identity a memo key hashes.

// DefaultCacheBytes is the artifact share of the memory budget when the
// configuration does not set one (64 MiB — roughly 10^4 large-device
// artifacts).
const DefaultCacheBytes = 64 << 20

// DefaultRespCacheBytes is the reply share of the memory budget when the
// configuration does not set one (32 MiB).
const DefaultRespCacheBytes = 32 << 20

// CacheStats is a snapshot of the memory tier's counters.
type CacheStats struct {
	// Entries and Bytes describe current occupancy; MaxBytes is the bound.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits/Misses count fingerprint lookups that found (or did not find)
	// something servable; Evictions counts entries dropped to respect the
	// size bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// RespCacheStats is the memory tier's reply and memo counters under the
// /stats key the encoded-response tier used to own, kept for existing
// /stats readers. Hits/Misses count fingerprint lookups that did (or did
// not) find an encoded reply; Evictions mirrors CacheStats.Evictions;
// MemoEntries/MemoHits/MemoMisses describe the request→fingerprint memo.
type RespCacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	MemoEntries int   `json:"memo_entries"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
}

// memoKeySize is sha256.Size: memo keys are hashes of the resolved request
// identity, so arbitrarily large sources cost the memo a fixed 32 bytes.
const memoKeySize = sha256.Size

// memoKeyCost is what one memo key is charged against the budget: it is
// held twice, as the index's key and in its entry's list.
const memoKeyCost = 2 * memoKeySize

// Cache is the goroutine-safe, size-bounded memory tier keyed by content
// fingerprint. Because keys are content addresses, a hit is by construction
// bit-identical to what a fresh compile of the same request class would
// produce (for deterministic configurations). Replies it hands out are
// shared and must never be mutated.
type Cache struct {
	mu          sync.Mutex
	max         int64
	bytes       int64
	ll          *list.List // front = most recently used
	items       map[string]*list.Element
	memo        map[[memoKeySize]byte]*list.Element
	hits        int64
	misses      int64
	evicted     int64
	replyHits   int64
	replyMisses int64
	memoHits    int64
	memoMisses  int64
}

type cacheEntry struct {
	key string
	art *pipeline.CompiledArtifact
	// reply, when set, was built from art — or, with art nil, replicated
	// from a peer's answer.
	reply    *CompileResponse
	peerHits uint32
	memo     [][memoKeySize]byte
	size     int64
}

// NewCache returns a memory tier bounded to maxBytes (DefaultCacheBytes
// when maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		max:   maxBytes,
		ll:    list.New(),
		items: map[string]*list.Element{},
		memo:  map[[memoKeySize]byte]*list.Element{},
	}
}

// Get returns the artifact stored under key, refreshing its recency. An
// entry holding only a peer's reply has no artifact and is a miss.
func (c *Cache) Get(key string) (*pipeline.CompiledArtifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).art == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).art, true
}

// Put stores art under key and evicts least-recently-used entries until the
// size bound holds again. An artifact larger than the whole bound is
// admitted and immediately evicted (the bound is an invariant, not a
// best-effort hint), so Bytes never exceeds MaxBytes.
func (c *Cache) Put(key string, art *pipeline.CompiledArtifact) { c.put(key, art, nil) }

// put stores art and its steady-state reply under key. With art nil, reply
// is a peer's answer and is kept only while the entry has no artifact of
// its own; with art set, a nil reply drops any reply built earlier.
func (c *Cache) put(key string, art *pipeline.CompiledArtifact, reply *CompileResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entry(key)
	e := el.Value.(*cacheEntry)
	switch {
	case art != nil:
		e.art, e.reply = art, reply
	case e.art == nil:
		e.reply = reply
	}
	c.resize(el)
}

// lookup returns what fp's entry can serve, refreshing its recency: the
// encoded reply when one is built, else the artifact to build it from.
func (c *Cache) lookup(fp string) (*CompileResponse, *pipeline.CompiledArtifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	var e *cacheEntry
	if ok {
		e = el.Value.(*cacheEntry)
	}
	if e == nil || e.reply == nil && e.art == nil {
		c.misses++
		c.replyMisses++
		return nil, nil
	}
	c.ll.MoveToFront(el)
	c.hits++
	if e.reply != nil {
		c.replyHits++
	} else {
		c.replyMisses++
	}
	return e.reply, e.art
}

// memoGet returns the fingerprint a resolved request identity hashed to.
func (c *Cache) memoGet(key [memoKeySize]byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.memo[key]
	if !ok {
		c.memoMisses++
		return "", false
	}
	c.memoHits++
	return el.Value.(*cacheEntry).key, true
}

// memoPut points key at fp's entry, if there is one: the memo indexes the
// tier and never outlives what it points at.
func (c *Cache) memoPut(key [memoKeySize]byte, fp string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.attachMemo(el, key)
	}
}

// peerHit records that fp was served by its ring owner, memoizes key to it,
// and returns how many peer hits the entry has counted.
func (c *Cache) peerHit(fp string, key [memoKeySize]byte) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entry(fp)
	e := el.Value.(*cacheEntry)
	e.peerHits++
	c.attachMemo(el, key)
	return e.peerHits
}

// entry returns fp's element, creating an empty one, as most recently used.
// Caller holds c.mu and must resize the element after filling it.
func (c *Cache) entry(fp string) *list.Element {
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		return el
	}
	el := c.ll.PushFront(&cacheEntry{key: fp})
	c.items[fp] = el
	return el
}

// attachMemo adds key to el's memo keys unless it is indexed already (a
// memo key's fingerprint never changes). Caller holds c.mu.
func (c *Cache) attachMemo(el *list.Element, key [memoKeySize]byte) {
	if _, ok := c.memo[key]; ok {
		return
	}
	e := el.Value.(*cacheEntry)
	e.memo = append(e.memo, key)
	c.memo[key] = el
	c.resize(el)
}

// resize re-charges el's entry against the budget and evicts
// least-recently-used entries until the bound holds. Caller holds c.mu.
func (c *Cache) resize(el *list.Element) {
	e := el.Value.(*cacheEntry)
	size := int64(len(e.memo)) * memoKeyCost
	if e.art != nil {
		size += e.art.SizeBytes()
	}
	if e.reply != nil {
		n := int64(len(e.reply.encoded))
		if e.art == nil {
			// A peer's reply holds its own decoded copy of the payload.
			n *= 2
		}
		size += n
	}
	c.bytes += size - e.size
	e.size = size
	for c.bytes > c.max && c.ll.Len() > 0 {
		back := c.ll.Back()
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		for _, k := range old.memo {
			delete(c.memo, k)
		}
		c.bytes -= old.size
		c.evicted++
	}
}

// Keys returns the fingerprints whose artifacts are cached, most recently
// used first. The bulk artifact index uses it to advertise this daemon's
// transferable working set.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.art != nil {
			keys = append(keys, e.key)
		}
	}
	return keys
}

// Stats returns a snapshot of the tier's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
	}
}

func (c *Cache) respStats() RespCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RespCacheStats{
		Hits:        c.replyHits,
		Misses:      c.replyMisses,
		Evictions:   c.evicted,
		MemoEntries: len(c.memo),
		MemoHits:    c.memoHits,
		MemoMisses:  c.memoMisses,
	}
}

// memoKeyBufPool recycles the preimage scratch buffers memoKey hashes, so
// computing a key allocates nothing once the pool is warm.
var memoKeyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// memoKey hashes the resolved request identity. The triple must be the
// *resolved* one (request overrides applied over the current epoch), so an
// epoch flip naturally changes the key for requests that ride the default.
func memoKey(spec string, seed int64, day int, source string) [memoKeySize]byte {
	bp := memoKeyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, spec...)
	b = append(b, '|')
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(day), 10)
	b = append(b, '|')
	b = append(b, source...)
	sum := sha256.Sum256(b)
	*bp = b
	memoKeyBufPool.Put(bp)
	return sum
}
