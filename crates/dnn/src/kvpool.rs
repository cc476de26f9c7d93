//! Paged KV storage: fixed-size pages behind a shared block allocator.
//!
//! The contiguous-per-session KV buffer (`hidden x kv_capacity` per layer,
//! pinned for the session's whole life) is replaced by fixed-size
//! [`KvPage`]s handed out by a [`KvPagePool`]: a session's per-layer cache
//! becomes a [`KvSeq`] — a page list plus a token cursor — and grows one
//! page at a time. This is what unlocks the serving tier's scale story:
//!
//! * **bounded residency** — a pool can cap resident pages
//!   ([`KvPagePool::bounded`]), and freed pages recycle through a free
//!   list instead of returning to the OS;
//! * **prefix reuse** — pages are `Arc`-ref-counted, so a prompt that
//!   opens with pages an earlier prompt already computed *adopts* them
//!   from the [`PrefixCache`] — KV pages by reference plus the cached
//!   outputs — **before** its forward and computes only what follows
//!   ([`PrefixCache::lookup`] → [`KvSeq::adopt`]); a hit saves the
//!   compute as well as the residency. A writer hitting a shared page
//!   gets a private copy first ([`KvPagePool::page_mut`],
//!   copy-on-write), though whole-page adoption means appends after a
//!   hit always land on a page of the adopter's own;
//! * **mobility** — a sequence serializes to a dense [`KvSnapshot`]
//!   (spill to bytes, restore later, or re-admit on another shard's
//!   pool), because a page list + cursor is data, not an address.
//!
//! Bit-identity discipline: a page is the *same* token-major layout the
//! contiguous cache used (`token t`'s K slice at `(t % page_tokens) *
//! hidden`), and attention reads tokens through [`KvSeq::k_tok`] /
//! [`KvSeq::v_tok`] without changing per-element arithmetic order — so
//! paged decode is bit-identical to the contiguous baseline at every page
//! size (asserted in `llm.rs` tests, single-stream and batched, f32 and
//! int8).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

/// Default page granularity (tokens per page) when callers don't choose
/// one: small enough that short sessions don't strand capacity, large
/// enough that the page list stays short at serving context lengths.
pub const DEFAULT_PAGE_TOKENS: usize = 16;

/// The pool has no free page and is at its residency bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPoolExhausted {
    /// The pool's resident-page bound.
    pub max_pages: usize,
}

impl std::fmt::Display for KvPoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KV page pool exhausted ({} resident pages)", self.max_pages)
    }
}

impl std::error::Error for KvPoolExhausted {}

/// One fixed-size KV page: `hidden x page_tokens` keys and values,
/// token-major (token slot `i`'s K values at `i * hidden`). Pages are
/// held as `Arc<KvPage>`; a strong count above one means the page is
/// shared (prefix cache and/or other sessions) and must be COW-split
/// before writing ([`KvPagePool::page_mut`]). Dropping the last reference
/// recycles the buffers into the owning pool's free list.
pub struct KvPage {
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pool: Weak<KvPagePool>,
}

impl KvPage {
    /// The page's key buffer (`hidden x page_tokens`, token-major).
    pub fn k(&self) -> &[f32] {
        &self.k
    }

    /// The page's value buffer (same layout as [`KvPage::k`]).
    pub fn v(&self) -> &[f32] {
        &self.v
    }
}

impl std::fmt::Debug for KvPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvPage").field("elems", &self.k.len()).finish()
    }
}

impl Drop for KvPage {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.recycle(std::mem::take(&mut self.k), std::mem::take(&mut self.v));
        }
    }
}

struct PoolInner {
    /// Recycled `(k, v)` buffers awaiting reuse.
    free: Vec<(Vec<f32>, Vec<f32>)>,
    /// Pages currently handed out (live `Arc<KvPage>`s).
    allocated: usize,
    /// High-water mark of `allocated`.
    peak: usize,
    /// Copy-on-write splits performed ([`KvPagePool::page_mut`] on a
    /// shared page).
    cow_splits: u64,
}

/// A block allocator for [`KvPage`]s: every page it hands out has the
/// same `hidden x page_tokens` geometry, freed pages recycle through a
/// free list, and (optionally) total residency is bounded. One pool per
/// serving shard; sessions on the shard draw from and share within it.
pub struct KvPagePool {
    hidden: usize,
    page_tokens: usize,
    max_pages: usize,
    inner: Mutex<PoolInner>,
}

impl KvPagePool {
    /// An unbounded pool at the given geometry.
    pub fn new(hidden: usize, page_tokens: usize) -> Arc<Self> {
        Self::bounded(hidden, page_tokens, usize::MAX)
    }

    /// A pool that refuses to hold more than `max_pages` resident pages
    /// (live + free-listed) — the serving tier's KV-memory bound.
    pub fn bounded(hidden: usize, page_tokens: usize, max_pages: usize) -> Arc<Self> {
        assert!(hidden > 0 && page_tokens > 0, "pool geometry must be non-zero");
        Arc::new(KvPagePool {
            hidden,
            page_tokens,
            max_pages,
            inner: Mutex::new(PoolInner { free: Vec::new(), allocated: 0, peak: 0, cow_splits: 0 }),
        })
    }

    /// Hidden width each page stores per token.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// The residency bound (`usize::MAX` when unbounded).
    pub fn max_pages(&self) -> usize {
        self.max_pages
    }

    /// Bytes of one page's K+V storage.
    pub fn page_bytes(&self) -> usize {
        2 * self.hidden * self.page_tokens * std::mem::size_of::<f32>()
    }

    /// Live pages (allocated and not yet dropped).
    pub fn allocated_pages(&self) -> usize {
        self.inner.lock().unwrap().allocated
    }

    /// Recycled pages awaiting reuse.
    pub fn free_pages(&self) -> usize {
        self.inner.lock().unwrap().free.len()
    }

    /// Live + free-listed pages — the pool's physical footprint, the
    /// quantity [`KvPagePool::bounded`] bounds.
    pub fn resident_pages(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.allocated + inner.free.len()
    }

    /// High-water mark of live pages.
    pub fn peak_pages(&self) -> usize {
        self.inner.lock().unwrap().peak
    }

    /// Copy-on-write splits performed so far.
    pub fn cow_splits(&self) -> u64 {
        self.inner.lock().unwrap().cow_splits
    }

    /// Allocates one zeroed page, reusing a free-listed buffer when one
    /// exists, minting a new one while under the residency bound.
    pub fn alloc(self: &Arc<Self>) -> Result<Arc<KvPage>, KvPoolExhausted> {
        let elems = self.hidden * self.page_tokens;
        let (k, v) = {
            let mut inner = self.inner.lock().unwrap();
            let bufs = match inner.free.pop() {
                Some(bufs) => bufs,
                None => {
                    if inner.allocated >= self.max_pages {
                        return Err(KvPoolExhausted { max_pages: self.max_pages });
                    }
                    (vec![0.0; elems], vec![0.0; elems])
                }
            };
            inner.allocated += 1;
            inner.peak = inner.peak.max(inner.allocated);
            bufs
        };
        Ok(Arc::new(KvPage { k, v, pool: Arc::downgrade(self) }))
    }

    /// Allocates a page holding a copy of `src`'s contents (the write
    /// half of copy-on-write).
    fn alloc_copy(self: &Arc<Self>, src: &KvPage) -> Result<Arc<KvPage>, KvPoolExhausted> {
        let mut page = self.alloc()?;
        {
            let p = Arc::get_mut(&mut page).expect("fresh page is exclusively owned");
            p.k.copy_from_slice(&src.k);
            p.v.copy_from_slice(&src.v);
        }
        self.inner.lock().unwrap().cow_splits += 1;
        Ok(page)
    }

    /// Writable access to `page`: if the page is shared (strong count
    /// above one), it is first replaced by a private copy — the
    /// copy-on-write split that isolates a writer from every other
    /// holder of the original page.
    pub fn page_mut<'a>(
        self: &Arc<Self>,
        page: &'a mut Arc<KvPage>,
    ) -> Result<&'a mut KvPage, KvPoolExhausted> {
        if Arc::get_mut(page).is_none() {
            let copy = self.alloc_copy(page)?;
            *page = copy;
        }
        Ok(Arc::get_mut(page).expect("exclusive after COW split"))
    }

    fn recycle(&self, k: Vec<f32>, v: Vec<f32>) {
        let mut inner = self.inner.lock().unwrap();
        inner.allocated -= 1;
        // Dropped mid-teardown pages may have been taken; only buffers of
        // full geometry are worth keeping.
        if k.len() == self.hidden * self.page_tokens && v.len() == k.len() {
            let (mut k, mut v) = (k, v);
            k.iter_mut().for_each(|x| *x = 0.0);
            v.iter_mut().for_each(|x| *x = 0.0);
            inner.free.push((k, v));
        }
    }
}

/// One layer's KV sequence: an ordered page list plus a token cursor.
/// Token `t` lives in page `t / page_tokens` at slot `t % page_tokens` —
/// the same token-major layout the contiguous cache used, chunked.
pub struct KvSeq {
    pages: Vec<Arc<KvPage>>,
    len: usize,
    hidden: usize,
    page_tokens: usize,
}

impl KvSeq {
    /// An empty sequence drawing from `pool`'s geometry.
    pub fn new(pool: &KvPagePool) -> Self {
        KvSeq { pages: Vec::new(), len: 0, hidden: pool.hidden(), page_tokens: pool.page_tokens() }
    }

    /// Cached tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently held.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page list (shared handles; ref counts are visible through it).
    pub fn pages(&self) -> &[Arc<KvPage>] {
        &self.pages
    }

    /// Pages this sequence shares with at least one other holder.
    pub fn shared_pages(&self) -> usize {
        self.pages.iter().filter(|p| Arc::strong_count(p) > 1).count()
    }

    /// Token `t`'s key slice (`hidden` values).
    #[inline]
    pub fn k_tok(&self, t: usize) -> &[f32] {
        debug_assert!(t < self.len);
        let off = (t % self.page_tokens) * self.hidden;
        &self.pages[t / self.page_tokens].k[off..off + self.hidden]
    }

    /// Token `t`'s value slice (`hidden` values).
    #[inline]
    pub fn v_tok(&self, t: usize) -> &[f32] {
        debug_assert!(t < self.len);
        let off = (t % self.page_tokens) * self.hidden;
        &self.pages[t / self.page_tokens].v[off..off + self.hidden]
    }

    /// Appends one token's K/V slices, growing the page list at page
    /// boundaries and COW-splitting a shared tail page before writing.
    pub fn append(
        &mut self,
        pool: &Arc<KvPagePool>,
        k: &[f32],
        v: &[f32],
    ) -> Result<(), KvPoolExhausted> {
        debug_assert_eq!(k.len(), self.hidden);
        debug_assert_eq!(v.len(), self.hidden);
        let slot = self.len / self.page_tokens;
        if slot == self.pages.len() {
            self.pages.push(pool.alloc()?);
        }
        let page = pool.page_mut(&mut self.pages[slot])?;
        let off = (self.len % self.page_tokens) * self.hidden;
        page.k[off..off + self.hidden].copy_from_slice(k);
        page.v[off..off + self.hidden].copy_from_slice(v);
        self.len += 1;
        Ok(())
    }

    /// Drops every page (recycling each last reference into the pool)
    /// and resets the cursor.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.len = 0;
    }

    /// Points this **empty** sequence at `hit`'s cached pages for
    /// `layer`, by reference: afterwards it holds `hit.tokens()` tokens
    /// whose pages it shares with the cache, and appends continue on a
    /// page of its own (a hit is whole pages, so nothing is ever
    /// copy-on-write split).
    ///
    /// # Panics
    /// Panics if the sequence already holds tokens, or if `hit` came from
    /// a cache of another page geometry or layer count.
    pub fn adopt(&mut self, hit: &PrefixHit, layer: usize) {
        assert!(self.pages.is_empty(), "adoption needs an empty sequence");
        assert_eq!(hit.page_tokens, self.page_tokens, "page size mismatch");
        self.pages = hit.pages.iter().map(|p| Arc::clone(&p.kv[layer])).collect();
        assert!(self.pages.iter().all(|p| p.k.len() == self.hidden * self.page_tokens));
        self.len = hit.tokens();
    }
}

/// A dense, poolless serialization of a multi-layer KV state: the spill
/// and migration wire format. Only valid tokens are stored (not
/// capacity), so an idle 10-token session spills to 10 tokens of bytes
/// regardless of its admission capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct KvSnapshot {
    hidden: usize,
    len: usize,
    capacity: usize,
    /// Per-layer `(k, v)` buffers, each `hidden x len` token-major.
    layers: Vec<(Vec<f32>, Vec<f32>)>,
}

impl KvSnapshot {
    /// Densifies `seqs` (one per layer, equal lengths — the quiesced
    /// invariant) into a snapshot carrying admission capacity `capacity`.
    pub fn from_seqs(seqs: &[KvSeq], capacity: usize) -> Self {
        assert!(!seqs.is_empty(), "snapshot needs at least one layer");
        let len = seqs[0].len();
        let hidden = seqs[0].hidden;
        let layers = seqs
            .iter()
            .map(|seq| {
                assert_eq!(seq.len(), len, "layers must be quiesced at equal lengths");
                let mut k = Vec::with_capacity(hidden * len);
                let mut v = Vec::with_capacity(hidden * len);
                for t in 0..len {
                    k.extend_from_slice(seq.k_tok(t));
                    v.extend_from_slice(seq.v_tok(t));
                }
                (k, v)
            })
            .collect();
        KvSnapshot { hidden, len, capacity, layers }
    }

    /// Cached tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the snapshot holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The admission capacity the session was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hidden width per token.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Layers captured.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Bytes of KV payload held (keys + values, all layers).
    pub fn kv_bytes(&self) -> usize {
        self.layers.iter().map(|(k, v)| (k.len() + v.len()) * 4).sum()
    }

    /// Rehydrates into per-layer sequences drawing pages from `pool`
    /// (possibly a different shard's pool than the one spilled from).
    pub fn restore(&self, pool: &Arc<KvPagePool>) -> Result<Vec<KvSeq>, KvPoolExhausted> {
        assert_eq!(pool.hidden(), self.hidden, "pool geometry mismatch");
        let h = self.hidden;
        let mut seqs = Vec::with_capacity(self.layers.len());
        for (k, v) in &self.layers {
            let mut seq = KvSeq::new(pool);
            for t in 0..self.len {
                seq.append(pool, &k[t * h..(t + 1) * h], &v[t * h..(t + 1) * h])?;
            }
            seqs.push(seq);
        }
        Ok(seqs)
    }

    /// Serializes to a byte buffer (little-endian; `PLKV` magic + u32
    /// header + raw f32 payload) — the cross-shard wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.kv_bytes());
        out.extend_from_slice(b"PLKV");
        for field in
            [self.hidden as u32, self.len as u32, self.capacity as u32, self.layers.len() as u32]
        {
            out.extend_from_slice(&field.to_le_bytes());
        }
        for (k, v) in &self.layers {
            for x in k.iter().chain(v) {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes [`KvSnapshot::to_bytes`] output; `None` on any
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (magic, rest) = bytes.split_at_checked(4)?;
        if magic != b"PLKV" {
            return None;
        }
        let mut fields = [0usize; 4];
        let mut rest = rest;
        for f in &mut fields {
            let (word, tail) = rest.split_at_checked(4)?;
            *f = u32::from_le_bytes(word.try_into().ok()?) as usize;
            rest = tail;
        }
        let [hidden, len, capacity, layer_count] = fields;
        let per_buf = hidden.checked_mul(len)?;
        let want = layer_count.checked_mul(per_buf.checked_mul(8)?)?;
        if rest.len() != want {
            return None;
        }
        let read_buf = |rest: &mut &[u8]| -> Option<Vec<f32>> {
            let (raw, tail) = rest.split_at_checked(per_buf * 4)?;
            *rest = tail;
            Some(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
        };
        let mut layers = Vec::with_capacity(layer_count);
        for _ in 0..layer_count {
            let k = read_buf(&mut rest)?;
            let v = read_buf(&mut rest)?;
            layers.push((k, v));
        }
        Some(KvSnapshot { hidden, len, capacity, layers })
    }
}

/// One cached prompt page: everything a later prompt with the same
/// leading pages needs in order to skip computing this one.
struct PrefixPage {
    /// Key of the page before it in its prompt (`None` for a prompt's
    /// first page). A lookup follows these links from the root, so a page
    /// is only ever reached at the position it was computed at.
    parent: Option<u64>,
    /// The page's `hidden x page_tokens` prompt inputs — compared bit for
    /// bit on lookup, so a hash collision degrades to a miss, never to
    /// aliasing two different prompts onto one KV prefix.
    input: Vec<f32>,
    /// Per-layer KV page handles holding these tokens' keys and values.
    kv: Vec<Arc<KvPage>>,
    /// The final-layer outputs at these positions (`hidden x page_tokens`).
    output: Vec<f32>,
}

struct CacheSlot {
    page: Arc<PrefixPage>,
    /// Cached pages whose `parent` is this one; only a page with none may
    /// be evicted, so a chain never loses a link in the middle.
    children: usize,
    /// The cache tick of the last lookup or registration that walked
    /// through this page.
    last_hit: u64,
}

#[derive(Default)]
struct PrefixInner {
    /// Keyed by the chained page hash (`PrefixCache::page_keys`). A
    /// `BTreeMap` so eviction order never depends on a per-process hasher.
    pages: BTreeMap<u64, CacheSlot>,
    tick: u64,
}

/// What a [`PrefixCache`] knows about one prompt: the chained keys of its
/// full pages (hashed once, for lookup now and registration later) and
/// the leading pages found cached, inputs verified. It owns handles to
/// what it found, so those pages stay valid (and adoptable) even if the
/// cache evicts them before they are used. The default value knows
/// nothing: no keys, no pages — what a caller holds when sharing is off.
#[derive(Default)]
pub struct PrefixHit {
    keys: Vec<u64>,
    pages: Vec<Arc<PrefixPage>>,
    page_tokens: usize,
}

impl PrefixHit {
    /// Prompt tokens found cached (a whole number of pages).
    pub fn tokens(&self) -> usize {
        self.pages.len() * self.page_tokens
    }

    /// Whether nothing was found.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Layers each covered page holds KV for (0 for an empty hit).
    pub fn layers(&self) -> usize {
        self.pages.first().map_or(0, |page| page.kv.len())
    }

    /// Appends the cached final-layer outputs of the covered positions
    /// (`hidden x tokens()`, column-major) to `out`.
    pub fn write_outputs(&self, out: &mut Vec<f32>) {
        for page in &self.pages {
            out.extend_from_slice(&page.output);
        }
    }
}

/// A cache of computed prompt pages, so a prompt that opens with pages
/// some earlier prompt already ran **skips their forward**: one entry per
/// full page of prompt, holding the page's inputs, its per-layer KV pages
/// and its final-layer outputs, keyed by a hash chained from the page
/// before it. Position `t`'s keys, values and output depend on tokens
/// `0..=t` only, so a later prompt whose first `s` pages match adopts
/// those entries by reference ([`KvSeq::adopt`]), takes their outputs
/// ([`PrefixHit::write_outputs`]) and forwards only what follows — bit for
/// bit what the full forward would have produced.
///
/// Lookup and registration are each one walk down the chain, and share
/// one hash of the prompt, computed outside the lock (the keys ride in
/// the [`PrefixHit`] from lookup to registration). The partial tail page
/// is never cached: a handle on it would force a copy-on-write split on
/// the registrant's next append and could never save an adopter a
/// resident page.
///
/// Eviction is least-recently-hit over **leaf** pages only, bounded by
/// pages held: a system prompt that keeps being hit outlives any number
/// of one-off prompts, and no page is ever left without its parent.
/// Sessions (and [`PrefixHit`]s) that already hold an evicted page keep
/// it; only future lookups lose it.
pub struct PrefixCache {
    max_pages: usize,
    hidden: usize,
    page_tokens: usize,
    inner: Mutex<PrefixInner>,
}

/// Whether `a` and `b` hold the same bit patterns (`==` on `f32` would
/// equate `0.0` with `-0.0` and reject equal NaNs).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PrefixCache {
    /// A cache over `pool`'s page geometry holding at most `max_pages`
    /// prompt pages (each pins one KV page per layer).
    pub fn new(pool: &KvPagePool, max_pages: usize) -> Self {
        PrefixCache {
            max_pages: max_pages.max(1),
            hidden: pool.hidden(),
            page_tokens: pool.page_tokens(),
            inner: Mutex::new(PrefixInner::default()),
        }
    }

    /// Input (and output) values per page.
    fn page_elems(&self) -> usize {
        self.hidden * self.page_tokens
    }

    /// Cached prompt pages.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().pages.len()
    }

    /// Physical KV pages the cache holds that at least one session
    /// currently shares.
    pub fn shared_pages(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let kv = inner.pages.values().flat_map(|slot| &slot.page.kv);
        kv.filter(|page| Arc::strong_count(page) > 1).count()
    }

    /// Drops every entry (pages survive wherever sessions still hold
    /// them; the rest recycle to the pool).
    pub fn clear(&self) {
        self.inner.lock().unwrap().pages.clear();
    }

    /// The chained keys of `prompt`'s full pages, in one pass over its
    /// bytes: page `i`'s key is FNV-1a over its `f32` bit patterns
    /// continued from page `i - 1`'s key, so it names the whole prompt up
    /// to and including page `i`. A prompt shorter than a page yields no
    /// keys and costs no hashing.
    fn page_keys(&self, prompt: &[f32]) -> Vec<u64> {
        let mut key = 0xcbf2_9ce4_8422_2325u64;
        let pages = prompt.chunks_exact(self.page_elems());
        pages
            .map(|page| {
                for x in page {
                    key = (key ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3);
                }
                key
            })
            .collect()
    }

    /// Hashes `prompt` (`hidden x tokens`, column-major) and finds the
    /// longest cached run of its leading pages, refreshing them as most
    /// recently hit. The lock covers the map walk only — hashing happens
    /// before it, and inputs are compared after it is released, on the
    /// handles the hit now owns. A prompt shorter than a page takes no
    /// lock at all.
    pub fn lookup(&self, prompt: &[f32]) -> PrefixHit {
        let keys = self.page_keys(prompt);
        let mut pages = Vec::new();
        if !keys.is_empty() {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            let mut parent = None;
            for &key in &keys {
                match inner.pages.get_mut(&key) {
                    Some(slot) if slot.page.parent == parent => {
                        slot.last_hit = tick;
                        pages.push(Arc::clone(&slot.page));
                        parent = Some(key);
                    }
                    _ => break,
                }
            }
        }
        let inputs = prompt.chunks_exact(self.page_elems());
        let verified = pages.iter().zip(inputs).take_while(|(p, x)| same_bits(&p.input, x)).count();
        pages.truncate(verified);
        PrefixHit { keys, pages, page_tokens: self.page_tokens }
    }

    /// Registers a completed prompt: every full page of `prompt` that is
    /// not cached yet becomes an entry holding that page's inputs,
    /// `seqs`' page handles (one sequence per layer, each holding exactly
    /// the prompt) and its slice of `output` (`hidden x tokens`). `hit`
    /// is what [`PrefixCache::lookup`] returned for this prompt: it
    /// supplies the keys, and the pages of it that `seqs` adopted are
    /// known entries, only refreshed. Returns how many pages were added;
    /// then evicts down to the page bound.
    pub fn register(
        &self,
        prompt: &[f32],
        hit: &PrefixHit,
        seqs: &[KvSeq],
        output: &[f32],
    ) -> usize {
        let keys = &hit.keys;
        let tokens = prompt.len() / self.hidden;
        let geometry = |s: &KvSeq| (s.hidden, s.page_tokens) == (self.hidden, self.page_tokens);
        if keys.is_empty()
            || keys.len() != tokens / self.page_tokens
            || output.len() != prompt.len()
            || seqs.iter().any(|s| s.len() != tokens || !geometry(s))
        {
            return 0;
        }
        let held = |(i, page): &(usize, &Arc<PrefixPage>)| {
            page.kv.len() == seqs.len()
                && seqs.iter().zip(&page.kv).all(|(s, kv)| Arc::ptr_eq(&s.pages[*i], kv))
        };
        let adopted = hit.pages.iter().enumerate().take_while(held).count();
        // Everything that copies happens before the lock is taken.
        let pe = self.page_elems();
        let fresh = (adopted..keys.len()).map(|i| {
            Arc::new(PrefixPage {
                parent: i.checked_sub(1).map(|p| keys[p]),
                input: prompt[i * pe..(i + 1) * pe].to_vec(),
                kv: seqs.iter().map(|s| Arc::clone(&s.pages[i])).collect(),
                output: output[i * pe..(i + 1) * pe].to_vec(),
            })
        });
        let chain: Vec<Arc<PrefixPage>> =
            hit.pages[..adopted].iter().cloned().chain(fresh).collect();

        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let mut added = 0;
        for (i, (&key, page)) in keys.iter().zip(chain).enumerate() {
            match inner.pages.get_mut(&key) {
                Some(slot) => {
                    // Someone else's entry for this key: go on down the
                    // chain only if it is this very page of this prompt.
                    let same = Arc::ptr_eq(&slot.page, &page)
                        || (slot.page.parent == page.parent
                            && same_bits(&slot.page.input, &page.input));
                    if !same {
                        break;
                    }
                    slot.last_hit = tick;
                }
                None => {
                    inner.pages.insert(key, CacheSlot { page, children: 0, last_hit: tick });
                    if i > 0 {
                        let parent = inner.pages.get_mut(&keys[i - 1]);
                        parent.expect("the walk just passed the parent page").children += 1;
                    }
                    added += 1;
                }
            }
        }
        // Least recently hit leaf first. One walk touches one chain, which
        // has one leaf, so leaves never tie on `last_hit`.
        while inner.pages.len() > self.max_pages {
            let leaves = inner.pages.iter().filter(|(_, slot)| slot.children == 0);
            let (&key, _) = leaves.min_by_key(|(_, slot)| slot.last_hit).expect("a leaf exists");
            let gone = inner.pages.remove(&key).expect("key just found");
            if let Some(parent) = gone.page.parent.and_then(|p| inner.pages.get_mut(&p)) {
                parent.children -= 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(seq: &mut KvSeq, pool: &Arc<KvPagePool>, tokens: usize, seed: f32) {
        let h = pool.hidden();
        for t in 0..tokens {
            let k: Vec<f32> = (0..h).map(|i| seed + (t * h + i) as f32).collect();
            let v: Vec<f32> = k.iter().map(|x| -x).collect();
            seq.append(pool, &k, &v).unwrap();
        }
    }

    #[test]
    fn alloc_free_recycles_buffers() {
        let pool = KvPagePool::new(4, 2);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(pool.allocated_pages(), 2);
        assert_eq!(pool.free_pages(), 0);
        drop(a);
        assert_eq!(pool.allocated_pages(), 1);
        assert_eq!(pool.free_pages(), 1);
        // The next alloc reuses the recycled buffer — zeroed.
        let c = pool.alloc().unwrap();
        assert!(c.k().iter().chain(c.v()).all(|&x| x == 0.0));
        assert_eq!(pool.free_pages(), 0);
        assert_eq!(pool.peak_pages(), 2);
        drop((b, c));
        assert_eq!(pool.allocated_pages(), 0);
        assert_eq!(pool.resident_pages(), 2);
    }

    #[test]
    fn bounded_pool_refuses_past_the_cap() {
        let pool = KvPagePool::bounded(4, 2, 2);
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert_eq!(pool.alloc().unwrap_err(), KvPoolExhausted { max_pages: 2 });
        drop(a);
        assert!(pool.alloc().is_ok(), "freed capacity is reusable");
    }

    #[test]
    fn seq_layout_matches_contiguous_token_major() {
        let pool = KvPagePool::new(3, 2);
        let mut seq = KvSeq::new(&pool);
        fill(&mut seq, &pool, 5, 100.0);
        assert_eq!(seq.len(), 5);
        assert_eq!(seq.page_count(), 3);
        for t in 0..5 {
            let want: Vec<f32> = (0..3).map(|i| 100.0 + (t * 3 + i) as f32).collect();
            assert_eq!(seq.k_tok(t), &want[..]);
            assert_eq!(seq.v_tok(t), want.iter().map(|x| -x).collect::<Vec<_>>());
        }
        seq.clear();
        assert_eq!(pool.allocated_pages(), 0);
        assert_eq!(pool.free_pages(), 3);
    }

    #[test]
    fn cow_split_isolates_writers() {
        let pool = KvPagePool::new(2, 4);
        let mut a = KvSeq::new(&pool);
        fill(&mut a, &pool, 2, 0.0);
        // b shares a's (partial) page.
        let mut b = KvSeq::new(&pool);
        b.pages = a.pages.clone();
        b.len = a.len;
        assert_eq!(a.shared_pages(), 1);
        assert_eq!(pool.allocated_pages(), 1);
        // b appends: COW split — a is untouched, b owns a private copy.
        b.append(&pool, &[7.0, 8.0], &[9.0, 10.0]).unwrap();
        assert_eq!(pool.cow_splits(), 1);
        assert_eq!(pool.allocated_pages(), 2);
        assert_eq!(a.shared_pages(), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(b.k_tok(0), a.k_tok(0), "shared prefix preserved across the split");
        assert_eq!(b.k_tok(2), &[7.0, 8.0]);
    }

    #[test]
    fn snapshot_roundtrip_bitwise() {
        let pool = KvPagePool::new(3, 2);
        let mut seqs: Vec<KvSeq> = (0..2).map(|_| KvSeq::new(&pool)).collect();
        for (l, seq) in seqs.iter_mut().enumerate() {
            fill(seq, &pool, 5, l as f32 * 10.0);
        }
        let snap = KvSnapshot::from_seqs(&seqs, 8);
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.capacity(), 8);
        assert_eq!(snap.kv_bytes(), 2 * 2 * 3 * 5 * 4);
        let bytes = snap.to_bytes();
        let back = KvSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        // Restore into a pool of *different* page size: values identical.
        let other = KvPagePool::new(3, 4);
        let restored = back.restore(&other).unwrap();
        for (orig, rest) in seqs.iter().zip(&restored) {
            for t in 0..5 {
                assert_eq!(orig.k_tok(t), rest.k_tok(t));
                assert_eq!(orig.v_tok(t), rest.v_tok(t));
            }
        }
        assert!(KvSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(KvSnapshot::from_bytes(b"nope").is_none());
    }

    /// `layers` sequences holding `tokens` tokens of `seed`-derived KV,
    /// as a prefill of `prompt` from empty (or from `hit`) leaves them.
    fn prefilled(pool: &Arc<KvPagePool>, hit: &PrefixHit, tokens: usize, seed: f32) -> Vec<KvSeq> {
        (0..2)
            .map(|layer| {
                let mut seq = KvSeq::new(pool);
                if !hit.is_empty() {
                    seq.adopt(hit, layer);
                }
                let past = seq.len();
                fill(&mut seq, pool, tokens - past, seed + (past * pool.hidden()) as f32);
                seq
            })
            .collect()
    }

    #[test]
    fn prefix_cache_hits_page_by_page_and_verifies_bytes() {
        let pool = KvPagePool::new(2, 2);
        let cache = PrefixCache::new(&pool, 8);
        let tokens = 5; // two full pages and a partial tail
        let prompt: Vec<f32> = (0..2 * tokens).map(|i| i as f32).collect();
        let output: Vec<f32> = prompt.iter().map(|x| x + 0.5).collect();
        let miss = cache.lookup(&prompt);
        assert!(miss.is_empty(), "first sight: a miss");
        assert_eq!(miss.keys.len(), 2, "one key per full page");
        let first = prefilled(&pool, &miss, tokens, 5.0);
        assert_eq!(cache.register(&prompt, &miss, &first, &output), 2);
        assert_eq!(cache.entries(), 2, "the partial tail page is never cached");
        assert_eq!(cache.shared_pages(), 4, "the registrant shares its own full pages");
        let before = pool.allocated_pages();

        // The same prompt again: both pages found, adopted by reference,
        // outputs served from the cache; only the tail is computed.
        let hit = cache.lookup(&prompt);
        assert_eq!((hit.tokens(), hit.layers()), (4, 2));
        let mut served = Vec::new();
        hit.write_outputs(&mut served);
        assert_eq!(served, output[..2 * 4]);
        let second = prefilled(&pool, &hit, tokens, 5.0);
        assert_eq!(pool.allocated_pages(), before + 2, "one private tail page per layer");
        for (a, b) in first.iter().zip(&second) {
            for t in 0..4 {
                assert!(std::ptr::eq(a.k_tok(t).as_ptr(), b.k_tok(t).as_ptr()));
            }
            assert_eq!(a.k_tok(4), b.k_tok(4));
        }
        assert_eq!(cache.register(&prompt, &hit, &second, &output), 0, "nothing new");
        assert_eq!(pool.cow_splits(), 0);

        // A prompt that shares only the first page hits only that page;
        // one that differs in the first page misses even where its second
        // page matches (a page is only reachable through its parent).
        let mut fork = prompt.clone();
        fork[2 * 2] += 1.0;
        assert_eq!(cache.lookup(&fork).tokens(), 2);
        let mut other = prompt.clone();
        other[0] = -0.0; // `==` to the cached 0.0, but other bits
        assert!(cache.lookup(&other).is_empty());
        // Shorter than a page: no keys, no hashing, no lookup.
        assert!(cache.lookup(&prompt[..2]).keys.is_empty());

        // A colliding hash never aliases. Forge one: `other` registered
        // under `prompt`'s keys is refused where `prompt` is cached, and
        // where it is not, `prompt` looks its keys up, finds `other`'s
        // bytes behind them, and misses.
        let forged = PrefixHit { keys: hit.keys.clone(), ..Default::default() };
        let others = prefilled(&pool, &forged, tokens, 9.0);
        assert_eq!(cache.register(&other, &forged, &others, &output), 0);
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.register(&other, &forged, &others, &output), 2);
        assert!(cache.lookup(&prompt).is_empty());
    }

    /// One layer's sequence of `tokens` tokens of `seed`-derived KV.
    fn one_layer(pool: &Arc<KvPagePool>, tokens: usize, seed: f32) -> Vec<KvSeq> {
        let mut seq = KvSeq::new(pool);
        fill(&mut seq, pool, tokens, seed);
        vec![seq]
    }

    /// Registers `prompt` (one token per page, one layer) as a miss would.
    fn register_new(cache: &PrefixCache, pool: &Arc<KvPagePool>, prompt: &[f32]) -> usize {
        let seqs = one_layer(pool, prompt.len(), prompt[0]);
        cache.register(prompt, &cache.lookup(prompt), &seqs, prompt)
    }

    #[test]
    fn eviction_is_least_recently_hit_and_leaf_first() {
        let pool = KvPagePool::new(1, 1);
        let cache = PrefixCache::new(&pool, 4);
        // A two-page system prompt, then a stream of one-off prompts with
        // the system prompt hit in between: FIFO would drop it after four
        // insertions; least-recently-hit keeps it for as long as it is hit.
        let system = [100.0f32, 101.0];
        assert_eq!(register_new(&cache, &pool, &system), 2);
        for i in 0..16 {
            register_new(&cache, &pool, &[i as f32]);
            assert_eq!(cache.lookup(&system).tokens(), 2, "evicted after {i} prompts");
            assert!(cache.entries() <= 4, "the page bound holds");
        }
        assert_eq!(pool.allocated_pages(), 4, "evicted pages went back to the pool");

        // Unhit, it goes too — leaf first: its second page before its
        // first, so no page is ever left without its parent.
        for one_off in [50.0, 51.0, 52.0] {
            register_new(&cache, &pool, &[one_off]);
        }
        assert_eq!(cache.lookup(&system).tokens(), 1, "the leaf went first");
        // A chain longer than the whole cache trims its own tail.
        let long: Vec<f32> = (0..6).map(|i| 200.0 + i as f32).collect();
        assert_eq!(register_new(&cache, &pool, &long), 6);
        assert_eq!(cache.entries(), 4);
        assert_eq!(cache.lookup(&long).tokens(), 4, "the first four pages survive");
    }

    #[test]
    fn a_hit_outlives_the_eviction_of_its_pages() {
        let pool = KvPagePool::new(1, 1);
        let cache = PrefixCache::new(&pool, 2);
        let prompt = [7.0f32, 8.0];
        register_new(&cache, &pool, &prompt);
        let hit = cache.lookup(&prompt);
        // The lookup raced an eviction: both pages leave the cache…
        register_new(&cache, &pool, &[1.0]);
        register_new(&cache, &pool, &[2.0]);
        assert!(cache.lookup(&prompt).is_empty());
        // …but the hit owns its handles, so adoption still reads valid KV,
        assert_eq!(pool.allocated_pages(), 4);
        let mut seq = KvSeq::new(&pool);
        seq.adopt(&hit, 0);
        assert_eq!((seq.len(), seq.k_tok(1)), (2, &[8.0f32][..]));
        // and registering the adopter puts the very same entries back.
        assert_eq!(cache.register(&prompt, &hit, &[seq], &prompt), 2);
        assert_eq!(pool.allocated_pages(), 2, "the one-off pages were evicted in turn");
        assert_eq!(cache.lookup(&prompt).tokens(), 2);
    }
}
