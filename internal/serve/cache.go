package serve

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seqver/internal/faults"
	"seqver/internal/metrics"
)

// Cache is the content-addressed result cache: the canonical structural
// hash of a prepared miter AIG (cec.Miter.Hash) keys the decided verdict
// plus its counterexample witness and summary stats. Entries live in
// memory under an LRU byte budget and are written through to an
// optional spill directory, so a restarted daemon answers repeat
// traffic warm from disk.
//
// Only decided verdicts (equivalent/inequivalent) are cached: a decided
// verdict is a pure function of the miter — engine, SAT mode, worker
// count, and budget cannot flip it — while an undecided verdict is a
// resource statement that a larger budget may improve, so caching it
// would pin a retryable non-answer.
type Cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	idx   map[string]*list.Element
	dir   string

	hits, misses, evictions, diskHits, corrupt *metrics.Counter
	bytesG, entriesG                           *metrics.Gauge
}

type cacheEntry struct {
	key  string
	size int64
	val  *CachedResult
}

// CachedResult is the persisted value: everything needed to answer a
// repeat submission without re-deriving it, including the replayable
// counterexample witness for inequivalent pairs.
type CachedResult struct {
	Verdict        string          `json:"verdict"`
	ExitCode       int             `json:"exit_code"`
	Method         string          `json:"method,omitempty"`
	Conservative   bool            `json:"conservative,omitempty"`
	Depth          int             `json:"depth,omitempty"`
	Outputs        int             `json:"outputs"`
	FailingOutput  string          `json:"failing_output,omitempty"`
	Counterexample map[string]bool `json:"counterexample,omitempty"`
	SATCalls       int             `json:"sat_calls"`
	SolveNS        int64           `json:"solve_ns"` // original decision's wall clock
	CreatedUnix    int64           `json:"created_unix"`
}

// NewCache returns a cache bounded to maxBytes of encoded entries. A
// non-empty dir enables the write-through spill: entries are persisted
// as <key>.json and promoted back on a memory miss, so the budget
// bounds memory while disk keeps the long tail across restarts.
func NewCache(maxBytes int64, dir string, reg *metrics.Registry) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	c := &Cache{
		max: maxBytes, ll: list.New(), idx: map[string]*list.Element{}, dir: dir,
		hits: reg.Counter("seqver_cache_hits_total",
			"Result-cache lookups answered without solving (memory or disk)."),
		misses: reg.Counter("seqver_cache_misses_total",
			"Result-cache lookups that fell through to the engine."),
		evictions: reg.Counter("seqver_cache_evictions_total",
			"Entries evicted from the in-memory LRU by the byte budget."),
		diskHits: reg.Counter("seqver_cache_disk_hits_total",
			"Cache hits promoted from the spill directory (subset of hits)."),
		corrupt: reg.Counter("seqver_cache_corrupt_total",
			"Corrupt or truncated spill entries deleted and treated as misses."),
		bytesG: reg.Gauge("seqver_cache_bytes",
			"Encoded bytes held by the in-memory result cache."),
		entriesG: reg.Gauge("seqver_cache_entries",
			"Entries held by the in-memory result cache."),
	}
	return c, nil
}

// isHexKey guards the spill path: keys are exactly the 32 lowercase hex
// digits of aig.StructuralHash, so nothing else may touch the
// filesystem.
func isHexKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (c *Cache) file(key string) string { return filepath.Join(c.dir, key+".json") }

// Get returns the cached result for key, or nil. A memory miss falls
// through to the spill directory; a disk hit is promoted into memory
// (possibly evicting colder entries) and still counts as a hit.
func (c *Cache) Get(key string) *CachedResult {
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Inc()
		return el.Value.(*cacheEntry).val
	}
	c.mu.Unlock()
	if c.dir != "" && isHexKey(key) {
		if data, err := os.ReadFile(c.file(key)); err == nil {
			var v CachedResult
			if json.Unmarshal(data, &v) == nil && v.Verdict != "" {
				c.insert(key, &v, int64(len(data)))
				c.hits.Inc()
				c.diskHits.Inc()
				return &v
			}
			// A corrupt or truncated spill entry (torn write from a crash
			// predating the atomic-rename path, bit rot, a partial disk):
			// delete it and treat the lookup as a miss — the engine
			// re-derives the verdict and Put re-persists it cleanly. Never
			// an error: cache damage must not fail jobs.
			c.corrupt.Inc()
			os.Remove(c.file(key))
		}
	}
	c.misses.Inc()
	return nil
}

// Put stores a decided result under key, writing through to the spill
// directory. Undecided verdicts and oversized entries are dropped.
func (c *Cache) Put(key string, v *CachedResult) {
	if v == nil || (v.Verdict != "equivalent" && v.Verdict != "inequivalent") {
		return
	}
	if v.CreatedUnix == 0 {
		v.CreatedUnix = time.Now().Unix()
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if c.dir != "" && isHexKey(key) {
		// Best-effort write-through; a full or read-only disk degrades the
		// cache to memory-only rather than failing the job.
		_ = c.spill(key, data)
	}
	c.insert(key, v, int64(len(data)))
}

// spill persists one entry crash-safely: write a temp file in the cache
// directory, then rename it into place. A reader (this process after a
// SIGKILL, or a concurrent Get) can therefore never observe a
// half-written entry — it sees the old file, the new file, or nothing.
func (c *Cache) spill(key string, data []byte) error {
	if faults.Fire(faults.DiskFull) {
		return errors.New("injected spill failure (faults.disk_full)")
	}
	tmp, err := os.CreateTemp(c.dir, key+"-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.file(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// insert adds or refreshes a memory entry and evicts LRU tails past the
// byte budget. An entry bigger than the whole budget is not cached.
func (c *Cache) insert(key string, v *CachedResult, size int64) {
	if size > c.max {
		return
	}
	c.mu.Lock()
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.size
		e.size, e.val = size, v
		c.ll.MoveToFront(el)
	} else {
		c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, size: size, val: v})
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.idx, e.key)
		c.bytes -= e.size
		c.evictions.Inc()
	}
	c.bytesG.Set(c.bytes)
	c.entriesG.Set(int64(c.ll.Len()))
	c.mu.Unlock()
}

// CacheStats is the /api/v1/cache view.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	DiskHits  int64  `json:"disk_hits"`
	Corrupt   int64  `json:"corrupt"`
	Dir       string `json:"dir,omitempty"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.ll.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Entries: entries, Bytes: bytes, MaxBytes: c.max,
		Hits: c.hits.Value(), Misses: c.misses.Value(),
		Evictions: c.evictions.Value(), DiskHits: c.diskHits.Value(),
		Corrupt: c.corrupt.Value(),
		Dir:     c.dir,
	}
}
