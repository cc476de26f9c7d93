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
//! * **prefix sharing** — pages are `Arc`-ref-counted, so identical prompt
//!   prefixes hash-cons to the *same* physical pages
//!   ([`PrefixCache`]); a writer hitting a shared page gets a private
//!   copy first ([`KvPagePool::page_mut`], copy-on-write), so divergence
//!   after the shared prefix is isolated;
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

use std::collections::{HashMap, VecDeque};
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

    /// Replaces the leading pages with `shared` handles (same contents,
    /// shared physical pages) — the prefix-dedup step. The caller
    /// guarantees the replaced pages hold identical data.
    pub(crate) fn adopt_prefix(&mut self, shared: &[Arc<KvPage>]) {
        debug_assert!(shared.len() <= self.pages.len());
        for (slot, page) in self.pages.iter_mut().zip(shared) {
            *slot = Arc::clone(page);
        }
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

struct PrefixEntry {
    /// Tokens this entry covers.
    tokens: usize,
    /// The exact prompt inputs the entry was keyed on (`hidden x tokens`)
    /// — compared on lookup, so hash collisions can never alias two
    /// different prompts onto one KV prefix.
    input: Vec<f32>,
    /// Per-layer shared page handles covering those tokens.
    pages: Vec<Vec<Arc<KvPage>>>,
}

struct PrefixInner {
    entries: HashMap<u64, PrefixEntry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// Hash-consing of prompt prefixes onto shared KV pages: after a prefill
/// completes, its prompt is hashed at every full-page boundary (the
/// partial tail page stays private); a hit replaces the session's
/// freshly written pages
/// with the cached *shared* pages — the duplicates recycle back to the
/// pool — and a miss registers the session's pages for the next tenant
/// with the same system prompt. Lookup verifies the full prompt bytes,
/// so a hash collision degrades to a miss, never to aliasing.
pub struct PrefixCache {
    max_entries: usize,
    inner: Mutex<PrefixInner>,
}

fn hash_prefix(input: &[f32]) -> u64 {
    // FNV-1a over the raw f32 bits plus the length.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for x in input {
        for b in x.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    for b in (input.len() as u64).to_le_bytes() {
        eat(b);
    }
    h
}

impl PrefixCache {
    /// A cache retaining up to `max_entries` prefix spans (FIFO-evicted;
    /// sessions already sharing an evicted span keep their pages — only
    /// *future* dedup against it is lost).
    pub fn new(max_entries: usize) -> Self {
        PrefixCache {
            max_entries: max_entries.max(1),
            inner: Mutex::new(PrefixInner { entries: HashMap::new(), order: VecDeque::new() }),
        }
    }

    /// Registered prefix spans.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Distinct physical pages the cache holds that at least one session
    /// currently shares (strong count above the cache's own references).
    pub fn shared_pages(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        let mut refs: HashMap<*const KvPage, (usize, usize)> = HashMap::new();
        for e in inner.entries.values() {
            for page in e.pages.iter().flatten() {
                let slot = refs.entry(Arc::as_ptr(page)).or_insert((0, Arc::strong_count(page)));
                slot.0 += 1;
                slot.1 = Arc::strong_count(page);
            }
        }
        refs.values().filter(|(cache_refs, strong)| strong > cache_refs).count()
    }

    /// Drops every entry (shared pages survive wherever sessions still
    /// hold them; unshared ones recycle to the pool).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.clear();
        inner.order.clear();
    }

    /// The candidate spans (token counts) a `tokens`-token prompt can be
    /// deduped at: every **full-page** boundary, descending so the
    /// longest match wins. The partial tail page is never registered:
    /// the cache's handle would pin the registrant's own tail, forcing a
    /// COW copy per layer on its first decode step, and an adopter would
    /// have to split the page on its first append anyway — a shared
    /// partial page never saves a resident page.
    fn spans(tokens: usize, page_tokens: usize) -> Vec<usize> {
        (1..=tokens / page_tokens).rev().map(|i| i * page_tokens).collect()
    }

    /// Dedups the freshly prefilled `seqs` (one per layer, every length
    /// exactly `tokens`) against the cache, adopting the longest cached
    /// span whose prompt bytes match and registering every unseen span.
    /// Returns the number of page handles newly pointed at shared
    /// physical pages (0 = no match).
    pub(crate) fn share_seqs(&self, seqs: &mut [KvSeq], prompt: &[f32], tokens: usize) -> usize {
        if seqs.is_empty() || tokens == 0 {
            return 0;
        }
        let h = seqs[0].hidden;
        let pt = seqs[0].page_tokens;
        if prompt.len() != h * tokens || seqs.iter().any(|s| s.len() != tokens) {
            return 0;
        }
        let spans = Self::spans(tokens, pt);
        let mut inner = self.inner.lock().unwrap();
        let mut adopted = 0usize;
        for &span in &spans {
            let key = hash_prefix(&prompt[..span * h]);
            let Some(entry) = inner.entries.get(&key) else { continue };
            if entry.tokens != span || entry.input != prompt[..span * h] {
                continue; // hash collision: miss, never alias
            }
            let npages = span / pt;
            for (seq, shared) in seqs.iter_mut().zip(&entry.pages) {
                debug_assert_eq!(shared.len(), npages);
                seq.adopt_prefix(shared);
            }
            adopted = npages * seqs.len();
            break;
        }
        // Register unseen spans so the *next* identical prompt shares
        // (the just-adopted prefix chains: its pages are now the shared
        // ones, so longer spans registered here extend the shared run).
        for &span in &spans {
            let key = hash_prefix(&prompt[..span * h]);
            if inner.entries.contains_key(&key) {
                continue;
            }
            let npages = span / pt;
            let pages = seqs.iter().map(|s| s.pages[..npages].to_vec()).collect();
            inner.entries.insert(
                key,
                PrefixEntry { tokens: span, input: prompt[..span * h].to_vec(), pages },
            );
            inner.order.push_back(key);
            while inner.order.len() > self.max_entries {
                if let Some(old) = inner.order.pop_front() {
                    inner.entries.remove(&old);
                }
            }
        }
        adopted
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

    #[test]
    fn prefix_cache_dedups_and_verifies_bytes() {
        let pool = KvPagePool::new(2, 2);
        let cache = PrefixCache::new(8);
        let tokens = 4;
        let prompt: Vec<f32> = (0..2 * tokens).map(|i| i as f32).collect();
        let mut first: Vec<KvSeq> = (0..2).map(|_| KvSeq::new(&pool)).collect();
        for seq in &mut first {
            fill(seq, &pool, tokens, 5.0);
        }
        assert_eq!(cache.share_seqs(&mut first, &prompt, tokens), 0, "first sight: no match");
        assert!(cache.entries() > 0);
        let before = pool.allocated_pages();
        // Second identical prompt: adopts the cached pages; its own
        // duplicates recycle.
        let mut second: Vec<KvSeq> = (0..2).map(|_| KvSeq::new(&pool)).collect();
        for seq in &mut second {
            fill(seq, &pool, tokens, 5.0);
        }
        let adopted = cache.share_seqs(&mut second, &prompt, tokens);
        assert_eq!(adopted, 2 * 2, "all pages of both layers shared");
        assert_eq!(pool.allocated_pages(), before, "duplicate pages recycled");
        assert!(cache.shared_pages() > 0);
        for (a, b) in first.iter().zip(&second) {
            for t in 0..tokens {
                assert!(std::ptr::eq(a.k_tok(t).as_ptr(), b.k_tok(t).as_ptr()));
            }
        }
        // A different prompt with the same length never aliases.
        let mut other_prompt = prompt.clone();
        other_prompt[0] += 1.0;
        let mut third: Vec<KvSeq> = (0..2).map(|_| KvSeq::new(&pool)).collect();
        for seq in &mut third {
            fill(seq, &pool, tokens, 6.0);
        }
        assert_eq!(cache.share_seqs(&mut third, &other_prompt, tokens), 0);
    }

    #[test]
    fn prefix_cache_evicts_fifo() {
        let pool = KvPagePool::new(1, 1);
        let cache = PrefixCache::new(2);
        for i in 0..4 {
            let prompt = vec![i as f32];
            let mut seqs = vec![KvSeq::new(&pool)];
            fill(&mut seqs[0], &pool, 1, i as f32);
            cache.share_seqs(&mut seqs, &prompt, 1);
        }
        assert_eq!(cache.entries(), 2, "FIFO bound holds");
        cache.clear();
        assert_eq!(cache.entries(), 0);
    }
}
