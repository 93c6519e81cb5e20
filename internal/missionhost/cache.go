package missionhost

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// cacheKey identifies one rendered view: a mission at one published
// sequence number. Every tick bumps Seq, so a stale render can never
// be served for a newer state — cache invalidation is the key.
type cacheKey struct {
	mission string
	seq     uint64
}

type cacheEntry struct {
	key  cacheKey
	body []byte
}

// renderCache is a small mutex-guarded LRU of rendered JSON bodies.
// It sits on the watcher read path only; the tick path never touches
// it.
type renderCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

func newRenderCache(capacity int) *renderCache {
	return &renderCache{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *renderCache) get(k cacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *renderCache) put(k cacheKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[k] = c.ll.PushFront(&cacheEntry{key: k, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// drop purges every cached render of one mission (on Delete).
func (c *renderCache) drop(mission string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.key.mission == mission {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

func (c *renderCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Status renders a mission's latest snapshot as JSON, served through
// the LRU cache. This is the watcher hot path: an atomic pointer
// load plus a cache lookup — no tick lock, no registry write lock.
func (h *Host) Status(id string) ([]byte, error) {
	m, ok := h.Mission(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	m.touch()
	snap := m.Snapshot()
	if snap == nil {
		return nil, errors.New("missionhost: " + id + ": no snapshot published")
	}
	k := cacheKey{mission: id, seq: snap.Seq}
	if body, ok := h.cache.get(k); ok {
		h.cacheHits.Add(1)
		h.met.cacheHitsTotal.Inc()
		return body, nil
	}
	h.cacheMisses.Add(1)
	h.met.cacheMissesTotal.Inc()
	body, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	h.cache.put(k, body)
	return body, nil
}
