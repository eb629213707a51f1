//! Incremental posteriors for a family of conditioned GP models.
//!
//! A BO loop asks the same queries of a model again and again while the
//! model grows: [`GpModel::condition`] extends the Cholesky factor by
//! the new rows and leaves the leading block untouched. A query's
//! forward solve `y = L⁻¹ kx` (`kx` its cross-kernel vector) therefore
//! only gains the new rows (O(k·n) per query) instead of being rebuilt
//! (an O(n²) solve). [`PosteriorCache`] keeps those rows between calls
//! and returns exactly what [`GpModel::predict_many`] returns, bit for
//! bit.
//!
//! Storage has two tiers:
//!
//! * **heads**, one per *origin* factorization (the leading rows every
//!   [`GpModel::with_targets`] sibling shares — in the outcome bank,
//!   all cameras of one objective), holding the origin rows of `kx`
//!   and `y` once per distinct query;
//! * **blocks**, one per model slot chosen by the caller, holding the
//!   rows of `y` past the origin in one flat slot-major array sized
//!   exactly to the block's queries and rows. The matching rows of `kx`
//!   are one kernel evaluation each and are recomputed per call, which
//!   halves the block tier.
//!
//! A block is valid for a model when both share the origin and agree on
//! the [`GpModel::factor_ids`] of the cached rows; rows past the longest
//! agreeing prefix are recomputed, and a model shorter than the cache
//! (an ancestor) reads just its prefix.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::GpModel;

/// Posterior rows kept across calls for many models (see the module
/// docs). Dropping the cache frees everything.
#[derive(Debug, Default)]
pub struct PosteriorCache {
    heads: Heads,
    blocks: Vec<Block>,
}

/// The origin-row tier, keyed by origin factor id.
#[derive(Debug, Default)]
pub struct Heads {
    by_origin: HashMap<u64, Head, BuildHasherDefault<BitsHasher>>,
}

/// One origin's rows for every distinct query asked of it.
#[derive(Debug)]
struct Head {
    /// Origin rows per query.
    rows: usize,
    /// Query dimension.
    dim: usize,
    /// Query bits → slot.
    index: HashMap<Box<[u64]>, u32, BuildHasherDefault<BitsHasher>>,
    /// Query inputs, slot-major (`dim` per slot).
    x: Vec<f64>,
    /// `k(x, x)` per slot.
    kxx: Vec<f64>,
    /// Origin rows of `kx`, slot-major (`rows` per slot).
    kx: Vec<f64>,
    /// Origin rows of `y = L⁻¹ kx`, slot-major.
    y: Vec<f64>,
}

/// One model slot's rows past the origin.
#[derive(Debug, Default)]
pub struct Block {
    /// Origin factor id the rows extend.
    origin: u64,
    /// Factor ids of the cached rows (past the origin).
    ids: Vec<u64>,
    /// Head slot of each block slot.
    head_slot: Vec<u32>,
    /// `(head slot, block slot)`, sorted by head slot.
    lookup: Vec<(u32, u32)>,
    /// Cached rows of `y`, slot-major (`ids.len()` per slot).
    y: Vec<f64>,
}

impl PosteriorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Posterior `(mean, latent variance)` of `model` at `xs`, using and
    /// updating block `block` (grown on demand). Bit-identical to
    /// `model.predict_many(xs)`.
    pub fn predict_many(
        &mut self,
        block: usize,
        model: &GpModel,
        xs: &[Vec<f64>],
    ) -> Vec<(f64, f64)> {
        if self.blocks.len() <= block {
            self.blocks.resize_with(block + 1, Block::default);
        }
        let slots = self.heads.slots(model, xs);
        self.blocks[block].predict(&self.heads, model, &slots, xs)
    }

    /// Floats held: `(origin tier, block tier)`.
    pub fn floats(&self) -> (usize, usize) {
        let heads = self
            .heads
            .by_origin
            .values()
            .map(|h| h.x.len() + h.kxx.len() + h.kx.len() + h.y.len())
            .sum();
        let blocks = self.blocks.iter().map(|b| b.y.len()).sum();
        (heads, blocks)
    }

    /// The two tiers, for callers that resolve head slots first
    /// ([`Heads::slots`]) and then fill blocks in parallel
    /// ([`Block::predict`]); `n_blocks` blocks are ensured.
    pub fn split(&mut self, n_blocks: usize) -> (&mut Heads, &mut [Block]) {
        if self.blocks.len() < n_blocks {
            self.blocks.resize_with(n_blocks, Block::default);
        }
        (&mut self.heads, &mut self.blocks)
    }
}

impl Heads {
    /// Head slot of each query under `model`'s origin, computing the
    /// origin rows of queries not seen before. If a solve fails (a zero
    /// pivot) the slots come back empty and [`Block::predict`] falls
    /// back to [`GpModel::predict_many`].
    pub fn slots(&mut self, model: &GpModel, xs: &[Vec<f64>]) -> Vec<u32> {
        let Some(&origin) = model.factor_ids().first() else {
            return Vec::new();
        };
        let head = self.by_origin.entry(origin).or_insert_with(|| Head {
            rows: model.origin_rows(),
            dim: model.dim(),
            index: HashMap::default(),
            x: Vec::new(),
            kxx: Vec::new(),
            kx: Vec::new(),
            y: Vec::new(),
        });
        let mut key: Vec<u64> = Vec::with_capacity(model.dim());
        let mut slots = Vec::with_capacity(xs.len());
        for x in xs {
            key.clear();
            key.extend(x.iter().map(|v| v.to_bits()));
            let slot = match head.index.get(key.as_slice()) {
                Some(&slot) => slot,
                None => match head.push(model, x) {
                    Some(slot) => {
                        head.index.insert(key.as_slice().into(), slot);
                        slot
                    }
                    None => return Vec::new(),
                },
            };
            slots.push(slot);
        }
        slots
    }
}

impl Head {
    /// Compute and append a new query's origin rows; `None` if the
    /// solve fails.
    fn push(&mut self, model: &GpModel, x: &[f64]) -> Option<u32> {
        let slot = u32::try_from(self.kxx.len()).ok()?;
        let start = self.kx.len();
        self.kx.resize(start + self.rows, 0.0);
        self.y.resize(start + self.rows, 0.0);
        let kx = &mut self.kx[start..];
        let y = &mut self.y[start..];
        if model.cross_solve_rows(x, kx, y, 0..self.rows).is_err() {
            self.kx.truncate(start);
            self.y.truncate(start);
            return None;
        }
        self.x.extend_from_slice(x);
        self.kxx.push(model.kernel().eval(x, x));
        Some(slot)
    }
}

impl Block {
    /// Posterior of `model` at the queries whose head slots are `slots`
    /// (from [`Heads::slots`] on the same model; `xs` are the queries
    /// themselves, used only on the uncached fallback). Brings the block
    /// up to `model`'s rows first, so after the call every block slot
    /// holds exactly the model's rows past the origin — unless the model
    /// is an ancestor of the cached rows, which are then read, not
    /// replaced.
    pub fn predict(
        &mut self,
        heads: &Heads,
        model: &GpModel,
        slots: &[u32],
        xs: &[Vec<f64>],
    ) -> Vec<(f64, f64)> {
        let head = model
            .factor_ids()
            .first()
            .and_then(|origin| heads.by_origin.get(origin));
        match head {
            Some(head) if slots.len() == xs.len() => {
                self.predict_cached(head, model, slots).unwrap_or_else(|| {
                    *self = Block::default();
                    model.predict_many(xs)
                })
            }
            _ => model.predict_many(xs),
        }
    }

    fn predict_cached(
        &mut self,
        head: &Head,
        model: &GpModel,
        slots: &[u32],
    ) -> Option<Vec<(f64, f64)>> {
        let ids = model.factor_ids();
        let origin = ids[0];
        let n0 = head.rows;
        let n = ids.len();
        let tail = &ids[n0..];
        if self.origin != origin {
            *self = Block {
                origin,
                ..Block::default()
            };
        }

        // Longest prefix of cached rows the model shares (agreement at
        // row i implies agreement below it).
        let common = self.ids.len().min(tail.len());
        let keep = if common == 0 || self.ids[common - 1] == tail[common - 1] {
            common
        } else {
            self.ids[..common]
                .iter()
                .zip(tail)
                .position(|(a, b)| a != b)
                .unwrap_or(common)
        };

        // Head slots this block has not seen yet, in first-seen order.
        let mut fresh: Vec<u32> = Vec::new();
        for &s in slots {
            if self.find(s).is_none() && !fresh.contains(&s) {
                fresh.push(s);
            }
        }

        let mut kx = vec![0.0; n];
        let mut y = vec![0.0; n];
        let rows = self.ids.len();
        let t = tail.len();
        let mut post = vec![(0.0, 0.0); self.head_slot.len() + fresh.len()];
        if fresh.is_empty() && keep == t {
            // Every row the model has is cached (possibly more): read.
            let mut done = vec![false; post.len()];
            for &s in slots {
                let b = self.find(s)? as usize;
                if !done[b] {
                    head.gather(s, &mut kx, &mut y);
                    y[n0..].copy_from_slice(&self.y[b * rows..b * rows + t]);
                    model.cross_rows(head.x(s), &mut kx, n0..n);
                    post[b] = model.posterior_from_rows(&kx, &y, head.kxx[s as usize]);
                    done[b] = true;
                }
            }
        } else {
            // Rebuild the flat array at exactly the model's rows: kept
            // rows are copied, the rest solved.
            let mut new_y = Vec::with_capacity(post.len() * t);
            for (b, p) in post.iter_mut().enumerate() {
                let (s, have) = match self.head_slot.get(b) {
                    Some(&s) => {
                        y[n0..n0 + keep].copy_from_slice(&self.y[b * rows..b * rows + keep]);
                        (s, keep)
                    }
                    None => (fresh[b - self.head_slot.len()], 0),
                };
                head.gather(s, &mut kx, &mut y);
                model.cross_rows(head.x(s), &mut kx, n0..n0 + have);
                model
                    .cross_solve_rows(head.x(s), &mut kx, &mut y, n0 + have..n)
                    .ok()?;
                new_y.extend_from_slice(&y[n0..]);
                *p = model.posterior_from_rows(&kx, &y, head.kxx[s as usize]);
            }
            for &s in &fresh {
                let b = u32::try_from(self.head_slot.len()).ok()?;
                self.head_slot.push(s);
                self.lookup.push((s, b));
            }
            if !fresh.is_empty() {
                self.lookup.sort_unstable();
                self.head_slot.shrink_to_fit();
                self.lookup.shrink_to_fit();
            }
            self.y = new_y;
            self.ids = tail.to_vec();
        }
        slots
            .iter()
            .map(|&s| self.find(s).map(|b| post[b as usize]))
            .collect()
    }

    /// Block slot of a head slot.
    fn find(&self, head_slot: u32) -> Option<u32> {
        self.lookup
            .binary_search_by_key(&head_slot, |&(s, _)| s)
            .ok()
            .map(|i| self.lookup[i].1)
    }
}

impl Head {
    /// Copy slot `s`'s origin rows into the leading rows of `kx`/`y`.
    fn gather(&self, s: u32, kx: &mut [f64], y: &mut [f64]) {
        let at = s as usize * self.rows;
        kx[..self.rows].copy_from_slice(&self.kx[at..at + self.rows]);
        y[..self.rows].copy_from_slice(&self.y[at..at + self.rows]);
    }

    /// Query input of slot `s`.
    fn x(&self, s: u32) -> &[f64] {
        let at = s as usize * self.dim;
        &self.x[at..at + self.dim]
    }
}

/// Multiply-rotate hasher for `u64` words (float bit patterns and ids):
/// the default SipHash costs more than the posterior rows it guards.
#[derive(Debug, Default, Clone, Copy)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.write_u64(u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}
