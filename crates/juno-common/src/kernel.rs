//! The query path's scan kernels, each with an AVX2 arm and a portable arm
//! chosen once per process (`use_avx2`; the fast-scan accumulation also
//! has an AVX-512 VBMI arm, see [`kernel_name`]), and the offline half's
//! distance kernel.
//!
//! The **exact block scorer** ([`exact_block_sums`]) scores one 32-point
//! block of subspace-major code rows against a dense `S×E` `f32` table in
//! which `NaN` marks an unselected entry: per lane, the sum of the selected
//! entries in subspace order, from `+0.0`, and how many there were. The
//! portable arm is the per-candidate loop (one load + NaN test + add per
//! `(candidate, subspace)`); the AVX2 arm gathers eight lanes' entries at a
//! time and, instead of skipping a NaN, adds `+0.0` in its place. That is
//! exact: `x + (+0.0) = x` for every `x` except `−0.0`, and a
//! round-to-nearest sum that starts at `+0.0` is never `−0.0`. Both arms
//! therefore return the loop's bits.
//!
//! The **fast-scan ADC kernel** accumulates a `u8`-quantised LUT over the
//! same block-interleaved codes. It is the *pruning* half of a two-phase
//! pipeline that spares most candidates their exact score:
//!
//! 1. The per-probe LUT is quantised into `u8` ([`QuantizedLut`]) with
//!    **conservative floor rounding**, so the quantised sum of a candidate
//!    dequantises to a provable *lower bound* on its exact "lower is better"
//!    score. A candidate whose bound already loses to the current
//!    [`TopK`](crate::topk::TopK) worst score can be pruned without ever
//!    computing its exact distance — the final result set is bit-identical
//!    to the exact scan by construction.
//! 2. Codes are consumed in 32-point *blocks*, transposed subspace-major
//!    (see `juno_quant::layout`), so one LUT row serves 32 contiguous lanes:
//!    the shape AVX2 `vpshufb` and AVX-512 VBMI `vpermi2b` want, and the
//!    shape the autovectoriser can at least stream linearly in the scalar
//!    fallback.
//!
//! The VBMI and AVX2 paths (runtime-detected, `x86_64` only) and the scalar
//! fallback are **bit-identical at the u8/u16 level**: same saturating
//! `u16` lane sums, same early-abandon checkpoints. The quantiser's AVX2 arm
//! writes the portable arm's bytes and bits. `JUNO_FORCE_SCALAR_KERNEL=1`
//! forces the portable arm of every kernel here and of `juno_rt`'s ray
//! table (benchmark comparisons, differential tests).
//!
//! Two orthogonal pruners layer on top of the quantised pass:
//!
//! * [`QuantizedLut::cluster_bound`] — the minimum possible score of *any*
//!   candidate scored against this LUT slot; when the top-k worst already
//!   beats it the whole cluster is skipped.
//! * [`scan_block_with_abandon`] — every `ABANDON_CHUNK` subspaces the
//!   running minimum over the 32 lanes plus the suffix of per-subspace
//!   minima is tested against the prune threshold; once even the best lane
//!   cannot recover, the rest of the block is abandoned.
//!
//! The module also holds the offline half's one distance kernel, the
//! **nearest-row kernel** ([`nearest_row`], [`NearestRows`]): first-minimum
//! argmin of squared L2 from a vector to the rows of a small table — the
//! coarse assign of an insert and its PQ code one vector at a time, k-means
//! assignment and PQ encoding a block of points at a time
//! ([`NearestRows::nearest_each`], points across the lanes) — and beside
//! it the query path's front half, the **selective-table kernel**
//! ([`selective_table`]): the dense `S×E` table the exact block scorer
//! reads, each entry's exact value where the RT scene's hit predicate (in
//! closed form) selects it and `NaN` elsewhere.

use crate::metric::{l2_squared, Metric};
use std::sync::OnceLock;

/// Number of points interleaved per code block.
pub const BLOCK_LANES: usize = 32;

/// Bytes per subspace row in a nibble-packed block (two codes per byte).
pub(crate) const NIBBLE_ROW_BYTES: usize = 16;

/// Bytes per subspace row in a plain `u8` block.
pub(crate) const U8_ROW_BYTES: usize = 32;

/// Subspaces accumulated between early-abandon checks. Part of the kernel
/// contract: the scalar and AVX2 paths check at the same boundaries so an
/// abandoned block is abandoned identically on both.
pub(crate) const ABANDON_CHUNK: usize = 8;

/// Sentinel prune threshold meaning "nothing can be pruned" (the top-k is
/// not full yet, or the quantisation cannot separate candidates). A scan may
/// start on it: its lanes pass every candidate through until the top-k
/// fills, and prune from the next block on.
pub const NEVER_PRUNE: u32 = u32::MAX;

/// Minimum number of prunable points for the prune pass to pay for itself:
/// quantising a slot costs O(subspaces × E), so tiny clusters are cheaper to
/// scan exactly. Against a bound every base record of the cluster is
/// prunable; without one, those beyond the candidates the top-k still needs
/// to fill. Shared policy for every engine using the kernel.
pub const MIN_PRUNE_POINTS: usize = 2 * BLOCK_LANES;

/// Queries per register-tile of the multi-query (cluster-major) grouped
/// scan: how many quantised LUTs are held against each 32-point block before
/// the scan moves to the next block. Small enough that a tile's LUTs and
/// decode buffers stay cache-resident, large enough that one pass over a
/// block's code rows serves several queries. Shared policy for every engine
/// using the grouped executor.
pub const GROUP_TILE: usize = 4;

/// Batches smaller than this skip the group scheduler and run query-major —
/// the planning/scheduling overhead cannot amortise, mirroring how
/// [`MIN_PRUNE_POINTS`] gates the per-cluster quantisation.
pub const MIN_GROUP_QUERIES: usize = 2;

/// Target `stored records × queries` work units per cluster-group task of
/// the grouped executor (see `juno_common::group`): tasks scale with the
/// batch's scan work, not with the thread count, keeping the schedule — and
/// the per-query statistics it produces — independent of the worker budget.
pub const GROUP_CHUNK_WORK: usize = 8_192;

/// Bytes per subspace row for the given packing.
#[inline]
pub const fn row_bytes(nibble: bool) -> usize {
    if nibble {
        NIBBLE_ROW_BYTES
    } else {
        U8_ROW_BYTES
    }
}

/// The widest SIMD arm this process runs, probed once ([`arm`]). A value
/// other than `Scalar` is made only where the CPU reported its features
/// (`detect_arm`, and the tests after their own probe): the `unsafe` calls
/// into the SIMD arms rely on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// The portable arms: no x86 SIMD, or `JUNO_FORCE_SCALAR_KERNEL` set.
    Scalar,
    /// The AVX2 arms.
    Avx2,
    /// The AVX2 arms, and the `vpermi2b` arm of the fast-scan accumulation
    /// (AVX-512 VBMI with VL and BW; ymm registers only).
    Avx512Vbmi,
}

fn detect_arm() -> Arm {
    if std::env::var_os("JUNO_FORCE_SCALAR_KERNEL").is_some_and(|v| v != "0") {
        return Arm::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        if !has!("avx2") {
            Arm::Scalar
        } else if has!("avx512vbmi") && has!("avx512vl") && has!("avx512bw") {
            Arm::Avx512Vbmi
        } else {
            Arm::Avx2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Arm::Scalar
    }
}

fn arm() -> Arm {
    static ARM: OnceLock<Arm> = OnceLock::new();
    *ARM.get_or_init(detect_arm)
}

/// Whether this process runs the AVX2 arms of the kernels here. True when
/// the CPU reports AVX2 and `JUNO_FORCE_SCALAR_KERNEL` is unset or `0`;
/// probed once. A host that also reports AVX-512 VBMI (see [`kernel_name`])
/// still answers `true`: only the fast-scan accumulation has a VBMI arm,
/// every other kernel keeps its AVX2 arm there.
pub(crate) fn use_avx2() -> bool {
    arm() != Arm::Scalar
}

/// Hints the hardware prefetcher at a byte range that is about to be
/// streamed — the grouped scan issues this for the *next* 32-point code
/// block while the current one is accumulated against a tile of query LUTs,
/// hiding the memory latency of the block stream behind the kernel work.
///
/// One `prefetcht0` per 64-byte cache line on `x86_64`; a no-op elsewhere.
/// Purely a performance hint: results are unaffected.
#[inline]
pub fn prefetch_rows(rows: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut at = 0usize;
        while at < rows.len() {
            // SAFETY: `at` is in bounds; prefetch has no memory effects.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(rows.as_ptr().add(at) as *const i8) };
            at += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = rows;
}

/// The tighter (smaller, "lower is better") of two optional prune bounds.
/// Both inputs must be valid upper bounds on the final top-k worst score —
/// e.g. a chunk-local top-k worst and a seed-pass bound — so their minimum
/// is one too; pruning against it stays provably safe. `f32::min` ignores a
/// NaN operand, matching the kernel's NaN-disables-pruning convention.
#[inline]
pub fn tighter_worst(a: Option<f32>, b: Option<f32>) -> Option<f32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

/// The fast-scan accumulation arm this process runs, from the one probe:
/// `"avx512vbmi"` (one `vpermi2b` per 32 lanes of a 64-entry quarter; the
/// other kernels run their AVX2 arms), `"avx2"` (`vpshufb` per 16-entry
/// table) or `"scalar"` (the portable arms, also under
/// `JUNO_FORCE_SCALAR_KERNEL=1`).
pub fn kernel_name() -> &'static str {
    match arm() {
        Arm::Avx512Vbmi => "avx512vbmi",
        Arm::Avx2 => "avx2",
        Arm::Scalar => "scalar",
    }
}

/// Bytes a quantised LUT of `subspaces` rows at `stride` must hold for the
/// VBMI arm of `accumulate_rows`: it reads a row's table in 64-byte
/// quarters, so the last row's reads end `stride.next_multiple_of(64) −
/// stride` bytes past `subspaces × stride`. [`QuantizedLut`] pads its rows
/// to this length; a shorter table is accumulated by the AVX2 arm.
pub const fn padded_lut_len(subspaces: usize, stride: usize) -> usize {
    subspaces * stride + (stride.next_multiple_of(64) - stride)
}

/// A per-probe LUT quantised to `u8` so candidate sums become cheap integer
/// arithmetic, with enough book-keeping to convert quantised sums back into
/// provable score lower bounds.
///
/// Input values are *"lower is better" score contributions*: for L2 the LUT
/// values themselves (with the miss penalty substituted for unselected
/// entries), for MIPS the *negated* inner products (with `0` for unselected
/// entries) plus a per-cluster constant term.
///
/// Quantisation is per-subspace affine (`q = ⌊(v − lo_s) / Δ⌋`, one global
/// step `Δ`), rounded **down** and then verified down again against `f32`
/// rounding, so `lo_s + q·Δ ≤ v` always holds. A candidate's dequantised sum
/// `base + Δ·Σq − margin` is therefore a lower bound on its exact score; the
/// `margin` additionally absorbs the worst-case `f32` summation error of the
/// exact path, making the bound safe against associativity differences.
#[derive(Debug, Clone, Default)]
pub struct QuantizedLut {
    /// Quantised rows, one per subspace, padded to `stride` bytes each so the
    /// AVX2 table loads never read past a row, then to
    /// [`padded_lut_len`]`(subspaces, stride)` bytes in all so the VBMI arm's
    /// 64-byte quarter loads never read past the buffer.
    q: Vec<u8>,
    stride: usize,
    subspaces: usize,
    entries: usize,
    /// `const_term + Σ_s lo_s`.
    base: f64,
    /// Global quantisation step (0 when all values coincide).
    delta: f64,
    /// Conservative slack covering quantisation + `f32` rounding.
    margin: f64,
    /// `suffix_min[s] = Σ_{s' ≥ s} min_e q[s'][e]`; length `subspaces + 1`.
    suffix_min: Vec<u32>,
    /// Per-subspace minima scratch (kept to avoid reallocation).
    lo: Vec<f32>,
}

impl QuantizedLut {
    /// Creates an empty, reusable quantiser (buffers grow on first build).
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantises one slot's score contributions. `svals[s * entries + e]` is
    /// the contribution of entry `e` in subspace `s`; `const_term` is added
    /// once per candidate (the MIPS centroid term, negated).
    ///
    /// # Panics
    ///
    /// Panics if the shape is inconsistent, `entries` is 0 or exceeds 256,
    /// or `subspaces` is 0 (internal misuse).
    pub fn build(&mut self, svals: &[f32], subspaces: usize, entries: usize, const_term: f32) {
        // A NaN stays a NaN (its payload is never read: it selects no
        // minimum or maximum and quantises to 0).
        let map = ScoreMap {
            unselected: f32::NAN,
            negate: false,
        };
        self.build_impl(svals, subspaces, entries, const_term, map, arm());
    }

    /// [`QuantizedLut::build`] straight from a dense selective decode buffer
    /// (`NaN` = unselected): unselected entries take `unselected` as their
    /// score contribution and, when `negate` is set (MIPS), selected values
    /// are negated — without materialising an intermediate value buffer.
    pub fn build_selective(
        &mut self,
        dense: &[f32],
        subspaces: usize,
        entries: usize,
        const_term: f32,
        unselected: f32,
        negate: bool,
    ) {
        let map = ScoreMap { unselected, negate };
        self.build_impl(dense, subspaces, entries, const_term, map, arm());
    }

    /// The quantiser: a min/max pass and a quantise pass per row, on the
    /// AVX2 arm ([`row_min_max_avx2`], [`quantize_row_avx2`]) unless `arm`
    /// is [`Arm::Scalar`]. The arms return the same bytes and bits.
    fn build_impl(
        &mut self,
        svals: &[f32],
        subspaces: usize,
        entries: usize,
        const_term: f32,
        map: ScoreMap,
        arm: Arm,
    ) {
        assert!(subspaces > 0 && entries > 0 && entries <= 256);
        assert_eq!(svals.len(), subspaces * entries, "svals shape mismatch");
        let stride = entries.next_multiple_of(16);
        self.stride = stride;
        self.subspaces = subspaces;
        self.entries = entries;
        self.q.clear();
        self.q.resize(padded_lut_len(subspaces, stride), 0);
        self.lo.clear();
        self.lo.resize(subspaces, 0.0);

        let mut span_max = 0f32;
        let mut lo_sum = 0f64;
        let mut mag_sum = 0f64;
        for s in 0..subspaces {
            let row = &svals[s * entries..(s + 1) * entries];
            let (lo, hi) = map.min_max(row, arm);
            self.lo[s] = lo;
            span_max = span_max.max(hi - lo);
            lo_sum += lo as f64;
            mag_sum += lo.abs().max(hi.abs()) as f64;
        }
        // Degenerate spans (all values equal, or non-finite input) quantise
        // everything to 0; the bound then equals `base` exactly and pruning
        // simply degrades, never turning unsafe.
        let delta = if span_max.is_finite() && span_max > 0.0 {
            span_max / 255.0
        } else {
            0.0
        };
        self.delta = delta as f64;
        self.base = const_term as f64 + lo_sum;
        // One quantisation step of slack plus a generous multiple of the
        // worst-case relative f32 summation error of the exact path (~S·eps
        // of the term magnitudes) keeps the bound safe even when the exact
        // scan's own rounding makes a score a few ulps smaller than real
        // arithmetic would. The floor keeps the margin strictly positive
        // even for all-zero degenerate spans: "bound ≥ worst" must imply the
        // candidate's exact score is *strictly* worse, because top-k
        // boundary ties break by id and a pruned tie could otherwise have
        // displaced a larger-id incumbent.
        self.margin = (self.delta + 1e-5 * (mag_sum + const_term.abs() as f64)).max(1e-30);

        if delta > 0.0 {
            let inv_delta = 1.0 / delta;
            for s in 0..subspaces {
                let row = &svals[s * entries..(s + 1) * entries];
                let out = &mut self.q[s * stride..s * stride + entries];
                let step = Step {
                    lo: self.lo[s],
                    delta,
                    inv_delta,
                };
                map.quantize(row, step, out, arm);
            }
        }

        self.suffix_min.clear();
        self.suffix_min.resize(subspaces + 1, 0);
        for s in (0..subspaces).rev() {
            let row = &self.q[s * stride..s * stride + entries];
            // A fold of `u8::min` vectorises (`pminub`); `Iterator::min`
            // here cost about a third of a 48 × 64 build.
            let m = row.iter().fold(u8::MAX, |m, &q| m.min(q)) as u32;
            self.suffix_min[s] = self.suffix_min[s + 1] + m;
        }
    }

    /// Entries per subspace row (codes must be `< entries`).
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// A lower bound on the score of **any** candidate scored against this
    /// slot. When the current top-k worst score already beats it, the whole
    /// cluster can be skipped.
    pub fn cluster_bound(&self) -> f64 {
        self.base + self.delta * self.suffix_min[0] as f64 - self.margin
    }

    /// Converts the current top-k worst score into an integer prune
    /// threshold `T`: a lane with quantised sum `≥ T` provably cannot enter
    /// the top-k. Returns [`NEVER_PRUNE`] when no pruning is possible (no
    /// worst score yet, or degenerate quantisation).
    pub fn prune_threshold(&self, worst: Option<f32>) -> u32 {
        let Some(w) = worst else {
            return NEVER_PRUNE;
        };
        let w = w as f64;
        if self.delta <= 0.0 {
            // All candidates share the bound `base − margin`.
            return if self.base - self.margin >= w {
                0
            } else {
                NEVER_PRUNE
            };
        }
        let t = ((w - self.base + self.margin) / self.delta).ceil();
        // A NaN threshold (NaN worst score) must disable pruning, not prune
        // everything; `t as u32` would silently map it to 0.
        if t.is_nan() || t >= NEVER_PRUNE as f64 {
            NEVER_PRUNE
        } else if t <= 0.0 {
            0
        } else {
            t as u32
        }
    }
}

/// How [`QuantizedLut`] reads a table value as a score contribution: `NaN`
/// (an unselected entry) becomes `unselected`; any other value is kept or,
/// under `negate` (MIPS), negated.
#[derive(Debug, Clone, Copy)]
struct ScoreMap {
    unselected: f32,
    negate: bool,
}

impl ScoreMap {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        if v.is_nan() {
            self.unselected
        } else if self.negate {
            -v
        } else {
            v
        }
    }

    /// [`row_min_max`] of the mapped row on `arm`.
    fn min_max(self, row: &[f32], arm: Arm) -> (f32, f32) {
        #[cfg(target_arch = "x86_64")]
        if arm != Arm::Scalar {
            // SAFETY: an `Arm` other than `Scalar` is made only where the
            // CPU reports AVX2 ([`detect_arm`], and tests after their own
            // probe).
            return unsafe { row_min_max_avx2(row, self) };
        }
        let _ = arm;
        row_min_max(row, |v| self.apply(v))
    }

    /// [`quantize_row`] of the mapped row on `arm`.
    fn quantize(self, row: &[f32], step: Step, out: &mut [u8], arm: Arm) {
        #[cfg(target_arch = "x86_64")]
        if arm != Arm::Scalar {
            // SAFETY: as in `min_max`, AVX2 is present.
            return unsafe { quantize_row_avx2(row, step, self, out) };
        }
        let _ = arm;
        quantize_row(row, step, self, out);
    }
}

/// One row's quantisation step: the row minimum and the global step `Δ`
/// with its reciprocal.
#[derive(Debug, Clone, Copy)]
struct Step {
    lo: f32,
    delta: f32,
    inv_delta: f32,
}

/// Lanes of the min/max reduction, and entries per step of the quantiser.
const MIN_MAX_LANES: usize = 8;

/// Minimum and maximum of `map` over a row, NaN ignored (`+∞` / `−∞` when
/// nothing else is there): entry `i` folds into lane `i mod 8`, then the
/// eight lanes fold in order. `<` / `>` select exactly as `f32::min` /
/// `f32::max` do apart from which zero represents a `±0` tie (the first
/// one met), so the results compare equal to a serial fold's. This is the
/// portable arm, and the compiler keeps it scalar (`minss` / `maxss`, one
/// entry a step); [`row_min_max_avx2`] returns its bits eight entries a
/// step.
#[inline(always)]
fn row_min_max<F: Fn(f32) -> f32>(row: &[f32], map: F) -> (f32, f32) {
    let min = |a: f32, v: f32| if v < a { v } else { a };
    let max = |a: f32, v: f32| if v > a { v } else { a };
    let mut lo = [f32::INFINITY; MIN_MAX_LANES];
    let mut hi = [f32::NEG_INFINITY; MIN_MAX_LANES];
    let mut chunks = row.chunks_exact(MIN_MAX_LANES);
    for chunk in &mut chunks {
        for l in 0..MIN_MAX_LANES {
            let v = map(chunk[l]);
            lo[l] = min(lo[l], v);
            hi[l] = max(hi[l], v);
        }
    }
    for (l, &raw) in chunks.remainder().iter().enumerate() {
        let v = map(raw);
        lo[l] = min(lo[l], v);
        hi[l] = max(hi[l], v);
    }
    (
        lo.into_iter().fold(f32::INFINITY, min),
        hi.into_iter().fold(f32::NEG_INFINITY, max),
    )
}

/// Quantises one row into `out` (`out.len() == row.len()`), rounding down:
/// `q = ⌊(v − lo) / Δ⌋` clamped to `0..=255`, so `lo + q·Δ ≤ v` holds to
/// within the `f32` rounding `margin` absorbs.
///
/// It multiplies by the reciprocal instead of dividing and repairs the
/// estimate's possible one-step overshoot branch-free. The relative error of
/// two f32 ops is ~3eps — far below one step at 255 levels — so `trunc(est)
/// ≤ floor((v−lo)/Δ) + 1`, and after the conditional step-down the
/// dequantised sum stays a lower bound. The estimate goes through `i32`
/// once its range is pinned to `[0, 256]` (a NaN to 0). [`quantize_row_avx2`]
/// runs these operations eight entries a step, in the same order and without
/// FMA, so the two return the same bytes.
#[inline(always)]
fn quantize_row(row: &[f32], step: Step, map: ScoreMap, out: &mut [u8]) {
    let Step {
        lo,
        delta,
        inv_delta,
    } = step;
    for (q, &raw) in out.iter_mut().zip(row) {
        let v = map.apply(raw);
        let est = (v - lo) * inv_delta;
        let est = if est >= 0.0 { est } else { 0.0 };
        let est = if est < 256.0 { est } else { 256.0 };
        // SAFETY: the two selects above leave a finite value in [0, 256]
        // (NaN fails `>= 0.0`), which `i32` represents.
        let est = unsafe { est.to_int_unchecked::<i32>() };
        let over = (lo + est as f32 * delta > v) as i32;
        *q = (est - over).clamp(0, 255) as u8;
    }
}

/// Eight entries of a row through [`ScoreMap::apply`]: `v` with its sign
/// flipped by `sign` (`−0.0` under `negate`, else `+0.0`) where it is a
/// number, `unselected` where it is NaN.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn map_avx2(
    v: std::arch::x86_64::__m256,
    unselected: std::arch::x86_64::__m256,
    sign: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
    _mm256_blendv_ps(_mm256_xor_ps(v, sign), unselected, nan)
}

/// The AVX2 arm of [`row_min_max`] over `map`: the eight lanes in one
/// register each, `vminps(v, lo)` / `vmaxps(v, hi)` per step — each returns
/// its second operand unless the first is strictly less / greater: the
/// portable select, NaN and `±0` ties included — with the tail folded into
/// lanes `0..` under a mask, then [`fold_lanes`]. Returns the portable arm's
/// bits.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn row_min_max_avx2(row: &[f32], map: ScoreMap) -> (f32, f32) {
    use std::arch::x86_64::*;
    let unselected = _mm256_set1_ps(map.unselected);
    let sign = _mm256_set1_ps(if map.negate { -0.0 } else { 0.0 });
    let mut lo = _mm256_set1_ps(f32::INFINITY);
    let mut hi = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut chunks = row.chunks_exact(MIN_MAX_LANES);
    for chunk in &mut chunks {
        // SAFETY: one 8-float load of an 8-float chunk.
        let v = map_avx2(_mm256_loadu_ps(chunk.as_ptr()), unselected, sign);
        lo = _mm256_min_ps(v, lo);
        hi = _mm256_max_ps(v, hi);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail.len() as i32), lanes);
        // SAFETY: the masked load reads the `tail.len()` live lanes only.
        let v = map_avx2(_mm256_maskload_ps(tail.as_ptr(), live), unselected, sign);
        let live = _mm256_castsi256_ps(live);
        lo = _mm256_blendv_ps(lo, _mm256_min_ps(v, lo), live);
        hi = _mm256_blendv_ps(hi, _mm256_max_ps(v, hi), live);
    }
    (
        fold_lanes(lo, |later, earlier| _mm_min_ps(later, earlier)),
        fold_lanes(hi, |later, earlier| _mm_max_ps(later, earlier)),
    )
}

/// Folds eight lanes in index order with `keep(later, earlier)` (`vminps`
/// or `vmaxps`, which return `earlier` unless `later` is strictly less /
/// greater): adjacent lanes, then adjacent pairs, then the two halves. Each
/// step keeps the earlier range's value on a tie, so the result is the
/// first lane that attains the extreme — what the portable arm's serial
/// fold over the lanes returns, `±0` ties included (no lane holds a NaN).
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fold_lanes(
    v: std::arch::x86_64::__m256,
    keep: impl Fn(std::arch::x86_64::__m128, std::arch::x86_64::__m128) -> std::arch::x86_64::__m128,
) -> f32 {
    use std::arch::x86_64::*;
    let half = |x: __m128| {
        // Lane 0 ← lanes (0, 1), lane 2 ← lanes (2, 3); then lane 0 ← both.
        let x = keep(_mm_shuffle_ps::<0b10_11_00_01>(x, x), x);
        keep(_mm_shuffle_ps::<0b01_00_11_10>(x, x), x)
    };
    let low = half(_mm256_castps256_ps128(v));
    let high = half(_mm256_extractf128_ps::<1>(v));
    _mm_cvtss_f32(keep(high, low))
}

/// The AVX2 arm of [`quantize_row`]: eight entries a step through the same
/// operations — subtract, multiply, `vmaxps(est, 0)` (NaN and negatives to
/// 0, as the portable `>= 0.0` select), `vminps(est, 256)`, truncate,
/// multiply-then-add back (no FMA) and an ordered `>` for the step-down —
/// then `est − over` packed to bytes with unsigned saturation (the clamp to
/// `0..=255`). The tail goes through the portable body.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], step: Step, map: ScoreMap, out: &mut [u8]) {
    use std::arch::x86_64::*;
    assert_eq!(row.len(), out.len(), "one byte per entry");
    let unselected = _mm256_set1_ps(map.unselected);
    let sign = _mm256_set1_ps(if map.negate { -0.0 } else { 0.0 });
    let lo = _mm256_set1_ps(step.lo);
    let delta = _mm256_set1_ps(step.delta);
    let inv_delta = _mm256_set1_ps(step.inv_delta);
    let zero = _mm256_setzero_ps();
    let cap = _mm256_set1_ps(256.0);
    let mut chunks = row.chunks_exact(MIN_MAX_LANES);
    let mut outs = out.chunks_exact_mut(MIN_MAX_LANES);
    for (chunk, q) in (&mut chunks).zip(&mut outs) {
        // SAFETY: one 8-float load of an 8-float chunk.
        let v = map_avx2(_mm256_loadu_ps(chunk.as_ptr()), unselected, sign);
        let est = _mm256_mul_ps(_mm256_sub_ps(v, lo), inv_delta);
        let est = _mm256_min_ps(_mm256_max_ps(est, zero), cap);
        let est = _mm256_cvttps_epi32(est);
        let back = _mm256_add_ps(lo, _mm256_mul_ps(_mm256_cvtepi32_ps(est), delta));
        // All ones (−1) where `lo + est·Δ > v`.
        let over = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(back, v));
        let q32 = _mm256_add_epi32(est, over);
        // i32 → u16 → u8 with unsigned saturation, per 128-bit half: bytes
        // 0..4 of each half are its four entries.
        let q16 = _mm256_packus_epi32(q32, q32);
        let q8 = _mm256_packus_epi16(q16, q16);
        let bytes = _mm_unpacklo_epi32(
            _mm256_castsi256_si128(q8),
            _mm256_extracti128_si256::<1>(q8),
        );
        // SAFETY: an 8-byte store into an 8-byte chunk.
        _mm_storel_epi64(q.as_mut_ptr() as *mut __m128i, bytes);
    }
    quantize_row(chunks.remainder(), step, map, outs.into_remainder());
}

/// Decodes lane `l` of a block row (scalar reference; also used by the
/// deinterleave accessor in `juno_quant::layout`).
#[inline]
pub fn block_lane_code(row: &[u8], nibble: bool, lane: usize) -> u8 {
    if nibble {
        let b = row[lane & 15];
        if lane < 16 {
            b & 0x0F
        } else {
            b >> 4
        }
    } else {
        row[lane]
    }
}

fn accumulate_rows_scalar(
    qlut: &[u8],
    stride: usize,
    rows: &[u8],
    nibble: bool,
    s0: usize,
    s1: usize,
    acc: &mut [u16; BLOCK_LANES],
) {
    let rb = row_bytes(nibble);
    for s in s0..s1 {
        let lrow = &qlut[s * stride..(s + 1) * stride];
        let crow = &rows[s * rb..(s + 1) * rb];
        if nibble {
            for l in 0..16 {
                let b = crow[l];
                acc[l] = acc[l].saturating_add(lrow[(b & 0x0F) as usize] as u16);
                acc[l + 16] = acc[l + 16].saturating_add(lrow[(b >> 4) as usize] as u16);
            }
        } else {
            for (l, &c) in crow.iter().enumerate() {
                acc[l] = acc[l].saturating_add(lrow[c as usize] as u16);
            }
        }
    }
}

/// The early-abandon test of the fused pass: after every [`ABANDON_CHUNK`]
/// subspaces `s` short of the end, the block is abandoned when its minimum
/// lane plus `suffix_min[s]` reaches `threshold`.
#[derive(Debug, Clone, Copy)]
struct Abandon<'a> {
    suffix_min: &'a [u32],
    threshold: u32,
}

impl Abandon<'_> {
    #[inline(always)]
    fn fires(self, best: u32, s: usize) -> bool {
        best + self.suffix_min[s] >= self.threshold
    }
}

/// One fused pass over a block: subspaces `s0..s1` of the code `rows`
/// ([`row_bytes`] each) against the quantised LUT `qlut` (rows of `stride`
/// bytes), with the abandon test between [`ABANDON_CHUNK`]s when `abandon`
/// is set. [`Pass::new`], the only constructor, checks the shapes every arm
/// relies on.
#[derive(Debug, Clone, Copy)]
struct Pass<'a> {
    qlut: &'a [u8],
    stride: usize,
    rows: &'a [u8],
    nibble: bool,
    s0: usize,
    s1: usize,
    abandon: Option<Abandon<'a>>,
}

impl<'a> Pass<'a> {
    /// # Panics
    ///
    /// Panics unless `stride` is a positive multiple of 16, `qlut` holds
    /// `s1` LUT rows and `rows` holds `s1` code rows.
    fn new(
        qlut: &'a [u8],
        stride: usize,
        rows: &'a [u8],
        nibble: bool,
        subspaces: std::ops::Range<usize>,
        abandon: Option<Abandon<'a>>,
    ) -> Self {
        let (s0, s1) = (subspaces.start, subspaces.end);
        assert!(s0 <= s1);
        assert!(qlut.len() >= s1 * stride, "quantised LUT too short");
        assert!(rows.len() >= s1 * row_bytes(nibble), "code block too short");
        assert!(stride.is_multiple_of(16) && stride > 0);
        Self {
            qlut,
            stride,
            rows,
            nibble,
            s0,
            s1,
            abandon,
        }
    }

    /// Whether `qlut` holds the padding the VBMI arm's quarter loads read.
    fn padded(&self) -> bool {
        self.qlut.len() >= padded_lut_len(self.s1, self.stride)
    }

    /// Runs the pass on `arm`: the VBMI arm for 8-bit rows whose LUT is
    /// [`padded`](Self::padded), the AVX2 arm for nibble rows and an
    /// unpadded LUT there. Returns whether the block was abandoned; `acc`
    /// holds the sums reached either way, the same on every arm.
    fn run(self, arm: Arm, acc: &mut [u16; BLOCK_LANES]) -> bool {
        #[cfg(target_arch = "x86_64")]
        match arm {
            Arm::Avx512Vbmi if !self.nibble && self.padded() => {
                // SAFETY: VBMI, VL, BW and AVX2 were detected for this
                // `Arm`; `padded` checked just above.
                return unsafe { self.run_vbmi(acc) };
            }
            Arm::Avx2 | Arm::Avx512Vbmi => {
                // SAFETY: AVX2 was detected for this `Arm`.
                return unsafe { self.run_avx2(acc) };
            }
            Arm::Scalar => {}
        }
        let _ = arm;
        self.run_scalar(acc)
    }

    /// The portable arm, and the chunked reference the SIMD arms match:
    /// [`accumulate_rows_scalar`] in [`ABANDON_CHUNK`] steps, with the
    /// abandon test between them when `abandon` is set.
    fn run_scalar(self, acc: &mut [u16; BLOCK_LANES]) -> bool {
        let Self {
            qlut,
            stride,
            rows,
            nibble,
            s0,
            s1,
            abandon,
        } = self;
        let Some(abandon) = abandon else {
            accumulate_rows_scalar(qlut, stride, rows, nibble, s0, s1, acc);
            return false;
        };
        let mut s = s0;
        while s < s1 {
            let end = (s + ABANDON_CHUNK).min(s1);
            accumulate_rows_scalar(qlut, stride, rows, nibble, s, end, acc);
            s = end;
            if s < s1 && abandon.fires(*acc.iter().min().expect("32 lanes") as u32, s) {
                return true;
            }
        }
        false
    }

    /// The AVX2 arm: [`nibble_row`] or [`shuffle_row`] per subspace through
    /// [`Pass::fused`].
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2(self, acc: &mut [u16; BLOCK_LANES]) -> bool {
        let (lut, codes, stride) = (self.qlut.as_ptr(), self.rows.as_ptr(), self.stride);
        // SAFETY (both rows): for `s < s1` the table row (16 or `stride`
        // bytes from `s × stride`) and the code row lie inside the slices
        // (`Pass::new`).
        if self.nibble {
            let row = |s: usize| nibble_row(lut.add(s * stride), codes.add(s * NIBBLE_ROW_BYTES));
            return self.fused(row, acc);
        }
        let tables = stride / 16;
        let row = |s: usize| shuffle_row(lut.add(s * stride), codes.add(s * U8_ROW_BYTES), tables);
        self.fused(row, acc)
    }

    /// The VBMI arm over 8-bit code rows: [`vbmi_row`] per subspace through
    /// [`Pass::fused`], with `stride.div_ceil(64)` quarters.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and AVX-512 VBMI, VL and BW, 8-bit rows (`!nibble`)
    /// and a [`padded`](Self::padded) LUT.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,avx512bw,avx512vl,avx512vbmi")]
    unsafe fn run_vbmi(self, acc: &mut [u16; BLOCK_LANES]) -> bool {
        let (lut, codes, stride) = (self.qlut.as_ptr(), self.rows.as_ptr(), self.stride);
        // SAFETY (every arm below): row `s < s1` reads `64 × quarters =
        // stride.next_multiple_of(64)` table bytes from `s × stride` — past
        // its own row, and on the last row past `s1 × stride`, but never
        // past `padded_lut_len(s1, stride) ≤ qlut.len()` — and one 32-byte
        // code row inside `rows`. The bytes past the row sit in lanes no
        // code `< stride` selects.
        macro_rules! scan {
            ($quarters:literal) => {
                self.fused(
                    |s: usize| {
                        vbmi_row::<$quarters>(lut.add(s * stride), codes.add(s * U8_ROW_BYTES))
                    },
                    acc,
                )
            };
        }
        match stride.div_ceil(64) {
            1 => scan!(1),
            2 => scan!(2),
            3 => scan!(3),
            _ => scan!(4),
        }
    }

    /// The SIMD arms' shared loop: `row(s)` yields subspace `s`'s 32 LUT
    /// bytes, one per lane, which widen into two registers of 16 saturating
    /// `u16` lane sums. The sums stay in those registers across the abandon
    /// checkpoints — [`Pass::run_scalar`]'s chunks, at the same subspaces —
    /// where the minimum lane comes from `vpminuw` and one `phminposuw`.
    /// Returns what [`Pass::run_scalar`] returns, with the same `acc`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and `row` must be safe to call for every `s` in
    /// `s0..s1`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn fused(
        self,
        row: impl Fn(usize) -> std::arch::x86_64::__m256i,
        acc: &mut [u16; BLOCK_LANES],
    ) -> bool {
        use std::arch::x86_64::*;
        let Self {
            s0, s1, abandon, ..
        } = self;
        // SAFETY (all four accesses to `acc`): two 16-lane halves of 32.
        let mut acc0 = _mm256_loadu_si256(acc.as_ptr() as *const __m256i);
        let mut acc1 = _mm256_loadu_si256(acc.as_ptr().add(16) as *const __m256i);
        let chunk = if abandon.is_some() {
            ABANDON_CHUNK
        } else {
            s1 - s0
        };
        let mut s = s0;
        let mut abandoned = false;
        while s < s1 {
            let end = (s + chunk).min(s1);
            for r in s..end {
                let vals = row(r);
                let lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vals));
                let hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(vals));
                acc0 = _mm256_adds_epu16(acc0, lo);
                acc1 = _mm256_adds_epu16(acc1, hi);
            }
            s = end;
            if let Some(abandon) = abandon.filter(|_| s < s1) {
                let m = _mm256_min_epu16(acc0, acc1);
                let m = _mm_min_epu16(_mm256_castsi256_si128(m), _mm256_extracti128_si256::<1>(m));
                let best = _mm_extract_epi16::<0>(_mm_minpos_epu16(m)) as u32;
                if abandon.fires(best, s) {
                    abandoned = true;
                    break;
                }
            }
        }
        _mm256_storeu_si256(acc.as_mut_ptr() as *mut __m256i, acc0);
        _mm256_storeu_si256(acc.as_mut_ptr().add(16) as *mut __m256i, acc1);
        abandoned
    }
}

/// 32 LUT bytes of a nibble-packed code row: lanes 0..16 in the low
/// nibbles, lanes 16..32 in the high ones, one `vpshufb` against the row's
/// 16-entry table.
///
/// # Safety
///
/// Requires AVX2; `lrow` must be readable for 16 bytes and `crow` for
/// [`NIBBLE_ROW_BYTES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn nibble_row(lrow: *const u8, crow: *const u8) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let packed = _mm_loadu_si128(crow as *const __m128i);
    let nib = _mm_set1_epi8(0x0F);
    let lo = _mm_and_si128(packed, nib);
    let hi = _mm_and_si128(_mm_srli_epi16::<4>(packed), nib);
    let idx = _mm256_set_m128i(hi, lo);
    let tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(lrow as *const __m128i));
    _mm256_shuffle_epi8(tbl, idx)
}

/// 32 LUT bytes of an 8-bit code row on AVX2: each code splits into
/// (table = high nibble, index = low nibble); every 16-entry table is one
/// `vpshufb`, masked by a compare to the lanes whose code selects it.
/// `tables = stride / 16` tables cover E ≤ 256.
///
/// # Safety
///
/// Requires AVX2; `lrow` must be readable for `16 × tables` bytes and `crow`
/// for [`U8_ROW_BYTES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn shuffle_row(
    lrow: *const u8,
    crow: *const u8,
    tables: usize,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let codes = _mm256_loadu_si256(crow as *const __m256i);
    let lo = _mm256_and_si256(codes, _mm256_set1_epi8(0x0F));
    let hi = _mm256_and_si256(codes, _mm256_set1_epi8(0xF0u8 as i8));
    let mut out = _mm256_setzero_si256();
    for t in 0..tables {
        let tbl = _mm256_broadcastsi128_si256(_mm_loadu_si128(lrow.add(t * 16) as *const __m128i));
        let sel = _mm256_cmpeq_epi8(hi, _mm256_set1_epi8(((t as u8) << 4) as i8));
        out = _mm256_or_si256(out, _mm256_and_si256(_mm256_shuffle_epi8(tbl, lo), sel));
    }
    out
}

/// 32 LUT bytes of an 8-bit code row on AVX-512 VBMI: one `vpermi2b` looks
/// each lane up in a 64-entry quarter of the row's table (two ymm loads,
/// which LLVM folds with it into one `vpermb` from memory); with
/// `QUARTERS > 1` the code's bit 6, then bit 7, picks between quarters.
///
/// # Safety
///
/// Requires AVX-512 VBMI, VL and BW; `lrow` must be readable for
/// `64 × QUARTERS` bytes and `crow` for [`U8_ROW_BYTES`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512bw,avx512vl,avx512vbmi")]
#[inline]
unsafe fn vbmi_row<const QUARTERS: usize>(
    lrow: *const u8,
    crow: *const u8,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let codes = _mm256_loadu_si256(crow as *const __m256i);
    // Lane `l` gets `table[64q + (code_l mod 64)]`.
    let quarter = |q: usize| {
        // SAFETY: bytes `64q..64q + 64` of the `64 × QUARTERS` readable
        // bytes from `lrow` — for a row of a padded LUT that reaches past
        // the row (and past `subspaces × stride` on the last row) but not
        // past `padded_lut_len(subspaces, stride)`, which `run_vbmi`'s
        // caller checks.
        let at = lrow.add(64 * q);
        let lo = _mm256_loadu_si256(at as *const __m256i);
        let hi = _mm256_loadu_si256(at.add(32) as *const __m256i);
        _mm256_permutex2var_epi8(lo, codes, hi)
    };
    let first = quarter(0);
    if QUARTERS == 1 {
        return first;
    }
    let bit6 = _mm256_test_epi8_mask(codes, _mm256_set1_epi8(0x40));
    let low = _mm256_mask_blend_epi8(bit6, first, quarter(1));
    if QUARTERS == 2 {
        return low;
    }
    let high = if QUARTERS == 4 {
        _mm256_mask_blend_epi8(bit6, quarter(2), quarter(3))
    } else {
        quarter(2)
    };
    _mm256_mask_blend_epi8(_mm256_movepi8_mask(codes), low, high)
}

/// Accumulates subspaces `s0..s1` of one block into the 32 lane sums
/// (saturating `u16`) on the arm [`kernel_name`] names.
///
/// `qlut` holds `stride`-padded rows (see [`QuantizedLut::rows`]); `rows`
/// holds the block's interleaved code rows ([`row_bytes`] each). Codes must
/// be `< stride`; saturation only ever *lowers* a sum, so downstream bound
/// comparisons stay safe. The VBMI arm needs `qlut` to hold
/// [`padded_lut_len`]`(s1, stride)` bytes; a shorter table runs the AVX2
/// arm.
///
/// # Panics
///
/// Panics when the slices are too short for `s1` subspaces.
pub(crate) fn accumulate_rows(
    qlut: &[u8],
    stride: usize,
    rows: &[u8],
    nibble: bool,
    s0: usize,
    s1: usize,
    acc: &mut [u16; BLOCK_LANES],
) {
    Pass::new(qlut, stride, rows, nibble, s0..s1, None).run(arm(), acc);
}

/// Accumulates **all** subspaces of one block (no early abandon) — the
/// hit-count path, where every lane's exact integer count is needed.
pub fn accumulate_block(
    lut8: &[u8],
    stride: usize,
    subspaces: usize,
    rows: &[u8],
    nibble: bool,
    acc: &mut [u16; BLOCK_LANES],
) {
    *acc = [0; BLOCK_LANES];
    accumulate_rows(lut8, stride, rows, nibble, 0, subspaces, acc);
}

/// The quantised prune pass over one block: accumulates in
/// `ABANDON_CHUNK`-subspace steps and returns `true` (block abandoned —
/// every lane provably prunable) as soon as even the minimum lane plus the
/// best-possible remainder reaches `threshold`.
///
/// On a `false` return, `acc[l] >= threshold` identifies the individually
/// prunable lanes; the caller re-ranks the rest exactly. Padded lanes of a
/// tail block take part in the minimum (their codes are zero), which can
/// only make abandonment more conservative, never unsafe. Every arm
/// abandons at the same checkpoint and leaves the same sums in `acc`.
pub fn scan_block_with_abandon(
    lut: &QuantizedLut,
    rows: &[u8],
    nibble: bool,
    threshold: u32,
    acc: &mut [u16; BLOCK_LANES],
) -> bool {
    *acc = [0; BLOCK_LANES];
    let abandon = (threshold != NEVER_PRUNE).then_some(Abandon {
        suffix_min: &lut.suffix_min,
        threshold,
    });
    Pass::new(&lut.q, lut.stride, rows, nibble, 0..lut.subspaces, abandon).run(arm(), acc)
}

/// Per-lane output of [`exact_block_sums`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactLanes {
    /// Lane `l`'s selected entries summed in subspace order from `+0.0`.
    pub sums: [f32; BLOCK_LANES],
    /// How many entries lane `l`'s sum added (its non-NaN lookups).
    pub covered: [u32; BLOCK_LANES],
}

impl Default for ExactLanes {
    fn default() -> Self {
        Self {
            sums: [0.0; BLOCK_LANES],
            covered: [0; BLOCK_LANES],
        }
    }
}

/// The **exact block scorer**: for every lane of one block of
/// subspace-major code `rows` ([`row_bytes`] each, `subspaces` of them), the
/// sum of `table[s * entries + code]` over the entries that are not NaN, in
/// subspace order from `+0.0`, and their count — the per-candidate loop's
/// bits (see the [module documentation](self)). Padded lanes of a tail block
/// are scored too; callers read the lanes they hold.
///
/// A code `≥ entries` is read as `entries − 1`, so a corrupt code cannot
/// address outside its subspace's row; every valid code reads its own
/// entry.
///
/// # Panics
///
/// Panics unless `1 ≤ entries ≤ 256`, `table` holds `subspaces × entries`
/// values and `rows` holds `subspaces` rows.
pub fn exact_block_sums(
    table: &[f32],
    entries: usize,
    subspaces: usize,
    rows: &[u8],
    nibble: bool,
    out: &mut ExactLanes,
) {
    assert!((1..=256).contains(&entries), "entries must be in 1..=256");
    assert!(table.len() >= subspaces * entries, "table too short");
    assert!(
        rows.len() >= subspaces * row_bytes(nibble),
        "code block too short"
    );
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 confirmed at runtime; shapes asserted above.
        unsafe { exact_block_sums_avx2(table, entries, subspaces, rows, nibble, out) };
        return;
    }
    exact_block_sums_scalar(table, entries, subspaces, rows, nibble, out);
}

/// The portable arm of [`exact_block_sums`]: the per-candidate loop, one
/// lane at a time, skipping the NaNs.
fn exact_block_sums_scalar(
    table: &[f32],
    entries: usize,
    subspaces: usize,
    rows: &[u8],
    nibble: bool,
    out: &mut ExactLanes,
) {
    let rb = row_bytes(nibble);
    for lane in 0..BLOCK_LANES {
        let (mut sum, mut covered) = (0.0f32, 0u32);
        for (s, row) in rows.chunks_exact(rb).take(subspaces).enumerate() {
            let code = (block_lane_code(row, nibble, lane) as usize).min(entries - 1);
            let v = table[s * entries + code];
            if !v.is_nan() {
                sum += v;
                covered += 1;
            }
        }
        out.sums[lane] = sum;
        out.covered[lane] = covered;
    }
}

/// The AVX2 arm of [`exact_block_sums`]: per subspace, four groups of
/// eight lanes — widen eight codes to `i32`, clamp, gather their entries,
/// zero the NaNs (an ORD mask), add, and count the ORD lanes.
///
/// # Safety
///
/// Requires AVX2, `1 ≤ entries ≤ 256`, `table.len() ≥ subspaces × entries`
/// and `rows.len() ≥ subspaces × row_bytes(nibble)` (what
/// [`exact_block_sums`] asserts).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exact_block_sums_avx2(
    table: &[f32],
    entries: usize,
    subspaces: usize,
    rows: &[u8],
    nibble: bool,
    out: &mut ExactLanes,
) {
    use std::arch::x86_64::*;
    const GROUPS: usize = BLOCK_LANES / 8;
    let mut sums = [_mm256_setzero_ps(); GROUPS];
    let mut covered = [_mm256_setzero_si256(); GROUPS];
    let last = _mm256_set1_epi32(entries as i32 - 1);
    let rb = row_bytes(nibble);
    for s in 0..subspaces {
        // SAFETY: row `s < subspaces` starts inside `rows`
        // (`rows.len() ≥ subspaces × rb`).
        let row = unsafe { rows.as_ptr().add(s * rb) };
        let codes = if nibble {
            // SAFETY: one 16-byte load of a 16-byte nibble row.
            let packed = unsafe { _mm_loadu_si128(row as *const __m128i) };
            let nib = _mm_set1_epi8(0x0F);
            // Lanes 0..16 in the low nibbles, 16..32 in the high ones.
            let lo = _mm_and_si128(packed, nib);
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(packed), nib);
            [
                _mm256_cvtepu8_epi32(lo),
                _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(lo)),
                _mm256_cvtepu8_epi32(hi),
                _mm256_cvtepu8_epi32(_mm_srli_si128::<8>(hi)),
            ]
        } else {
            // SAFETY: 8-byte loads at 0, 8, 16 and 24 of a 32-byte u8 row.
            let eight = |at: usize| unsafe {
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(row.add(at) as *const __m128i))
            };
            [eight(0), eight(8), eight(16), eight(24)]
        };
        // SAFETY: subspace `s`'s row of `entries` values starts here, inside
        // `table` (`s < subspaces`, `table.len() ≥ subspaces × entries`).
        let base = unsafe { table.as_ptr().add(s * entries) };
        for g in 0..GROUPS {
            // Clamped to `entries − 1`, every gathered index stays inside the
            // row: the gather cannot read out of bounds whatever the codes.
            // Valid codes (`< entries`: encoded against E at build, `max_code
            // < E` checked at restore, a mapped cluster verified against its
            // recorded maximum on `touch_cluster` before a visit reads it)
            // pass the clamp unchanged.
            let index = _mm256_min_epu32(codes[g], last);
            // SAFETY: `base + 4 × index` lies inside subspace `s`'s row.
            let v = unsafe { _mm256_i32gather_ps::<4>(base, index) };
            let selected = _mm256_cmp_ps::<_CMP_ORD_Q>(v, v);
            sums[g] = _mm256_add_ps(sums[g], _mm256_and_ps(v, selected));
            covered[g] = _mm256_sub_epi32(covered[g], _mm256_castps_si256(selected));
        }
    }
    for g in 0..GROUPS {
        // SAFETY: `out`'s arrays hold BLOCK_LANES = 4 × 8 values.
        unsafe {
            _mm256_storeu_ps(out.sums.as_mut_ptr().add(8 * g), sums[g]);
            _mm256_storeu_si256(
                out.covered.as_mut_ptr().add(8 * g) as *mut __m256i,
                covered[g],
            );
        }
    }
}

/// Rows narrower than this are held coordinate-major by [`NearestRows`].
/// Below eight coordinates [`l2_squared`] is only its scalar tail —
/// `0 + d₀² + d₁² + …`, multiply then add in coordinate order — which a
/// loop running over lanes instead repeats lane for lane, bit for bit.
const NARROW_DIM: usize = 8;

/// Rows a single vector is scored against at a time by
/// [`NearestRows::nearest`]: one lane each of an eight-wide register.
const ROW_LANES: usize = 8;

/// Wide rows scored side by side for one vector by the AVX2 arms of
/// [`NearestRows::nearest_each`] and [`l2_squared_rows`]
/// (`l2_squared_x4_avx2`).
const WIDE_ROWS: usize = 4;

/// Points scored at a time by [`NearestRows::nearest_each`]: one lane each
/// of two AVX-512 or four AVX2 registers, so independent compare chains
/// share a row's broadcasts.
const POINT_LANES: usize = 32;

/// Lanes the portable arm of [`NearestRows::nearest_each`] runs one row
/// loop over: a width the compiler keeps in registers and branch-free
/// (at 32 lanes it spills to a branch per lane, ≈ 3× slower).
const PORTABLE_LANES: usize = 16;

/// The **nearest-row kernel** over borrowed row-major `rows`
/// (`rows.len() = n × v.len()`): `(index, squared L2 distance)` of the row
/// nearest to `v`. First minimum: the lowest index wins a tie, a NaN never
/// wins, and `(0, +∞)` comes back when no distance is below `+∞`. One
/// [`l2_squared`] per row — the right shape for rows of eight coordinates
/// and more (coarse centroids); a table of narrower rows that is queried
/// often wants [`NearestRows`].
///
/// # Panics
///
/// Panics if `v` is empty or `rows` is not a whole number of rows.
#[inline]
pub fn nearest_row(v: &[f32], rows: &[f32]) -> (usize, f32) {
    assert!(!v.is_empty(), "rows have at least one coordinate");
    assert_eq!(
        rows.len() % v.len(),
        0,
        "rows must be a whole number of rows"
    );
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (r, row) in rows.chunks_exact(v.len()).enumerate() {
        let d = l2_squared(v, row);
        if d < best_d {
            best_d = d;
            best = r;
        }
    }
    (best, best_d)
}

/// A small table of equal-width rows (k-means centroids, the `E` entries of
/// one PQ codebook) laid out for the nearest-row kernel. A *derived* layout:
/// built from the row-major rows where the table is made, never persisted.
///
/// Wide rows are kept row-major and go through [`nearest_row`]. Narrow rows
/// (the paper's `M = 2` subspaces) are kept transposed, one slice per
/// coordinate, and scored lane-parallel with `dx*dx + dy*dy`, the
/// arithmetic and the order of [`l2_squared`]'s scalar tail: one vector
/// against eight rows at a time ([`NearestRows::nearest`]), or
/// 32 points against one row at a time
/// ([`NearestRows::nearest_each`], what k-means assignment and PQ encoding
/// run). Either way the answer carries the bits and the tie-break of the
/// plain `l2_squared` first-minimum loop (`nearest_*` tests below).
///
/// Why points go across the lanes: for 64 two-dimensional rows the
/// row-at-a-time loop cost 70–110 ns a point on a 2-vCPU Xeon, and the
/// same loop compiled for AVX2 121 ns — a distance is three flops, and the
/// serial first-minimum chain over the rows and the row-at-a-time layout,
/// not the instruction set, are what bind. With a point in each lane the
/// chain runs in every lane at once and a row costs one broadcast per
/// coordinate: ≈ 30 ns a point on eight lanes, 16–20 ns on sixteen lanes
/// of AVX2 (31–45 ns portable). The compare chain a row is what is left:
/// one AVX-512 register of sixteen lanes was no faster than two AVX2 ones,
/// two of them (thirty-two points) 1.6× faster, so the kernel scores
/// 32 points a call on every arm.
#[derive(Debug, Clone, PartialEq)]
pub struct NearestRows {
    /// `data[j * len + r]` (coordinate-major) when `dim < NARROW_DIM`,
    /// `data[r * dim + j]` (row-major) otherwise.
    data: Vec<f32>,
    dim: usize,
    len: usize,
}

impl NearestRows {
    /// Lays out row-major `rows` of `dim` coordinates each.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero or `rows` is not a whole number of rows.
    pub fn new(rows: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "rows have at least one coordinate");
        assert_eq!(rows.len() % dim, 0, "rows must be a whole number of rows");
        let len = rows.len() / dim;
        let mut data = rows.to_vec();
        if dim < NARROW_DIM {
            for (r, row) in rows.chunks_exact(dim).enumerate() {
                for (j, &x) in row.iter().enumerate() {
                    data[j * len + r] = x;
                }
            }
        }
        Self { data, dim, len }
    }

    /// `(index, squared L2 distance)` of the row nearest to `v`; the lowest
    /// index on a tie, `(0, +∞)` when no distance is below `+∞`. Narrow rows
    /// are scored eight at a time, one per lane.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not as wide as the rows.
    #[inline]
    pub fn nearest(&self, v: &[f32]) -> (usize, f32) {
        assert_eq!(v.len(), self.dim, "vector width must match the rows");
        if self.dim >= NARROW_DIM {
            return nearest_row(v, &self.data);
        }
        // Lane `l` keeps the first minimum of rows `l`, `l + 8`, `l + 16`,
        // …: ascending, strict `<`, so a NaN never enters and a tie keeps
        // the lower row.
        let mut best = [f32::INFINITY; ROW_LANES];
        let mut idx = [0u32; ROW_LANES];
        let whole = self.len - self.len % ROW_LANES;
        for start in (0..whole).step_by(ROW_LANES) {
            let mut dist = [0.0f32; ROW_LANES];
            for (j, &x) in v.iter().enumerate() {
                let col = &self.data[j * self.len + start..][..ROW_LANES];
                for l in 0..ROW_LANES {
                    let t = x - col[l];
                    // `0 + t²` is `t²`: the first coordinate starts the sum.
                    dist[l] = if j == 0 { t * t } else { dist[l] + t * t };
                }
            }
            for l in 0..ROW_LANES {
                let closer = dist[l] < best[l];
                best[l] = if closer { dist[l] } else { best[l] };
                idx[l] = if closer { (start + l) as u32 } else { idx[l] };
            }
        }
        for (l, r) in (whole..self.len).enumerate() {
            let mut d = 0.0f32;
            for (j, &x) in v.iter().enumerate() {
                let t = x - self.data[j * self.len + r];
                d = if j == 0 { t * t } else { d + t * t };
            }
            if d < best[l] {
                best[l] = d;
                idx[l] = r as u32;
            }
        }
        // The overall minimum is some lane's, and among the lanes holding it
        // the lowest row is the first one a row-by-row scan meets. Nothing
        // below `+∞` leaves every lane at `(0, +∞)`.
        let (mut low, mut at) = (f32::INFINITY, u32::MAX);
        for l in 0..ROW_LANES {
            if best[l] < low || (best[l] == low && idx[l] < at) {
                (low, at) = (best[l], idx[l]);
            }
        }
        (at as usize, low)
    }

    /// The nearest row of each of `n` points, in point order: point `i`
    /// holds the row width's coordinates from `points[i * stride]` on, and
    /// `each(i, index, squared distance)` receives what
    /// [`NearestRows::nearest`] returns for it. A strided `points` lets a
    /// caller pass one subspace of wider vectors (`stride` = their width).
    ///
    /// Narrow rows go through 32 points at a time, one per lane,
    /// against the rows in ascending order with a strict `<` — the plain
    /// loop's first minimum in every lane — on the process's SIMD arm (see
    /// [`NearestRows`] for why this layout). Wide rows go point by point:
    /// through [`nearest_row`] on the portable arm, four rows at a
    /// time on the AVX2 arm.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is narrower than a row or `points` is too short
    /// to hold the last point (`(n − 1) × stride + dim` values).
    pub fn nearest_each(
        &self,
        points: &[f32],
        stride: usize,
        n: usize,
        each: impl FnMut(usize, usize, f32),
    ) {
        self.nearest_each_on(arm(), points, stride, n, each);
    }

    /// [`NearestRows::nearest_each`] on a given arm. A SIMD `arm` must be
    /// one this CPU reported ([`Arm`]).
    fn nearest_each_on<F: FnMut(usize, usize, f32)>(
        &self,
        arm: Arm,
        points: &[f32],
        stride: usize,
        n: usize,
        mut each: F,
    ) {
        assert!(stride >= self.dim, "points narrower than the rows");
        if n == 0 {
            return;
        }
        assert!(
            points.len() >= (n - 1) * stride + self.dim,
            "points hold fewer than {n} points"
        );
        let run: fn(&Self, Arm, &[f32], usize, usize, &mut F) = match self.dim {
            1 => Self::each_narrow::<1, F>,
            2 => Self::each_narrow::<2, F>,
            3 => Self::each_narrow::<3, F>,
            4 => Self::each_narrow::<4, F>,
            5 => Self::each_narrow::<5, F>,
            6 => Self::each_narrow::<6, F>,
            7 => Self::each_narrow::<7, F>,
            _ => {
                for i in 0..n {
                    let v = &points[i * stride..][..self.dim];
                    let (r, d) = match arm {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: a SIMD arm is only ever made where the CPU
                        // reported AVX2 (`Arm`).
                        Arm::Avx2 | Arm::Avx512Vbmi => unsafe { nearest_wide_avx2(v, &self.data) },
                        _ => nearest_row(v, &self.data),
                    };
                    each(i, r, d);
                }
                return;
            }
        };
        run(self, arm, points, stride, n, &mut each);
    }

    /// The narrow arm of [`NearestRows::nearest_each`] for `D`-wide rows:
    /// gathers [`POINT_LANES`] points coordinate-major (the unused lanes of
    /// the last group score zeros nobody reads), then runs the lane loop on
    /// the widest arm the CPU has.
    fn each_narrow<const D: usize, F: FnMut(usize, usize, f32)>(
        &self,
        arm: Arm,
        points: &[f32],
        stride: usize,
        n: usize,
        each: &mut F,
    ) {
        let cols: [&[f32]; D] = std::array::from_fn(|j| &self.data[j * self.len..][..self.len]);
        for start in (0..n).step_by(POINT_LANES) {
            let lanes = POINT_LANES.min(n - start);
            let mut xs = [[0.0f32; POINT_LANES]; D];
            for l in 0..lanes {
                let p = &points[(start + l) * stride..][..D];
                for j in 0..D {
                    xs[j][l] = p[j];
                }
            }
            let mut best = [f32::INFINITY; POINT_LANES];
            let mut idx = [0u32; POINT_LANES];
            match arm {
                #[cfg(target_arch = "x86_64")]
                Arm::Avx512Vbmi => {
                    // SAFETY: this arm is only ever made where the CPU
                    // reported AVX-512 VBMI, VL and BW, which imply AVX-512F
                    // (`Arm`).
                    unsafe { nearest_lanes_avx512(&cols, &xs, &mut best, &mut idx) }
                }
                #[cfg(target_arch = "x86_64")]
                Arm::Avx2 => {
                    // SAFETY: a SIMD arm is only ever made where the CPU
                    // reported AVX2 (`Arm`).
                    unsafe { nearest_lanes_avx2(&cols, &xs, &mut best, &mut idx) }
                }
                _ => nearest_lanes(&cols, &xs, &mut best, &mut idx),
            }
            for l in 0..lanes {
                each(start + l, idx[l] as usize, best[l]);
            }
        }
    }
}

/// [`l2_squared`] from `v` to every row of the row-major `rows`, into
/// `out` (one distance per row, the bits [`l2_squared`] returns). On the
/// AVX2 arm four rows go side by side (`l2_squared_x4_avx2`); what
/// exact ground truth scores a block of points with.
///
/// # Panics
///
/// Panics if `v` is empty or `rows` does not hold `out.len()` rows of
/// `v.len()` values.
pub(crate) fn l2_squared_rows(v: &[f32], rows: &[f32], out: &mut [f32]) {
    assert!(!v.is_empty(), "rows have at least one coordinate");
    assert_eq!(rows.len(), out.len() * v.len(), "one distance per row");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 confirmed at runtime.
        return unsafe { l2_squared_rows_avx2(v, rows, out) };
    }
    for (d, row) in out.iter_mut().zip(rows.chunks_exact(v.len())) {
        *d = l2_squared(v, row);
    }
}

/// The AVX2 arm of [`l2_squared_rows`].
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn l2_squared_rows_avx2(v: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = v.len();
    let whole = out.len() - out.len() % WIDE_ROWS;
    for (g, d) in out[..whole].chunks_exact_mut(WIDE_ROWS).enumerate() {
        // SAFETY: AVX2 is this function's own requirement.
        let four =
            unsafe { l2_squared_x4_avx2(v, &rows[g * WIDE_ROWS * dim..][..WIDE_ROWS * dim]) };
        d.copy_from_slice(&four);
    }
    for (r, d) in out.iter_mut().enumerate().skip(whole) {
        *d = l2_squared(v, &rows[r * dim..][..dim]);
    }
}

/// [`l2_squared`] from `v` to the [`WIDE_ROWS`] consecutive rows of
/// `group`, side by side: each row's eight lane sums in one register —
/// [`l2_squared`]'s `acc`, added chunk by chunk without FMA — then reduced
/// in its order, `((a₀+a₄)+(a₁+a₅))+((a₂+a₆)+(a₃+a₇))`, plus its scalar
/// tail. A lone row's sums are one dependent add per chunk; rows side by
/// side are independent, so the chunk loop runs at throughput: for 32 rows
/// of 96-d ≈ 1.6× the one-row loop on a 2-vCPU Xeon (≈ 220–240 against
/// 350–590 ns a point).
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn l2_squared_x4_avx2(v: &[f32], group: &[f32]) -> [f32; WIDE_ROWS] {
    use std::arch::x86_64::*;
    let dim = v.len();
    assert_eq!(
        group.len(),
        WIDE_ROWS * dim,
        "four rows of the vector's width"
    );
    let (v8, tail) = v.as_chunks::<8>();
    let mut acc = [_mm256_setzero_ps(); WIDE_ROWS];
    for (c, x) in v8.iter().enumerate() {
        // SAFETY: `x` is eight values, and so is each row's chunk `c`
        // (`8c + 8 ≤ dim`, row `q` of `group` starts at `q × dim`).
        let x = unsafe { _mm256_loadu_ps(x.as_ptr()) };
        for (q, acc) in acc.iter_mut().enumerate() {
            // SAFETY: as above, chunk `c` of row `q` of `group`.
            let y = unsafe { _mm256_loadu_ps(group.as_ptr().add(q * dim + 8 * c)) };
            let t = _mm256_sub_ps(x, y);
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(t, t));
        }
    }
    std::array::from_fn(|q| {
        let mut a = [0.0f32; 8];
        // SAFETY: `a` holds the register's eight lanes.
        unsafe { _mm256_storeu_ps(a.as_mut_ptr(), acc[q]) };
        let mut d = ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]));
        for (x, y) in tail
            .iter()
            .zip(&group[q * dim + 8 * v8.len()..][..tail.len()])
        {
            let t = x - y;
            d += t * t;
        }
        d
    })
}

/// The AVX2 arm of [`nearest_row`] under [`NearestRows::nearest_each`]:
/// the rows' distances [`WIDE_ROWS`] at a time (`l2_squared_x4_avx2`),
/// compared in row order with a strict `<`.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nearest_wide_avx2(v: &[f32], rows: &[f32]) -> (usize, f32) {
    let dim = v.len();
    let n = rows.len() / dim;
    let whole = n - n % WIDE_ROWS;
    let mut best = (0usize, f32::INFINITY);
    for r in (0..whole).step_by(WIDE_ROWS) {
        // SAFETY: AVX2 is this function's own requirement.
        let four = unsafe { l2_squared_x4_avx2(v, &rows[r * dim..][..WIDE_ROWS * dim]) };
        for (q, d) in four.into_iter().enumerate() {
            if d < best.1 {
                best = (r + q, d);
            }
        }
    }
    for r in whole..n {
        let d = l2_squared(v, &rows[r * dim..][..dim]);
        if d < best.1 {
            best = (r, d);
        }
    }
    best
}

/// The lane loop of [`NearestRows::nearest_each`], its portable arm. Lane
/// `l` scores point `xs[·][l]` against the rows `cols[·][r]` in ascending
/// `r` — `t₀²`, then `+ t₁²`, … in coordinate order, multiply then add —
/// and keeps the first strict minimum: `best` / `idx` start at `+∞` / `0`,
/// which is also what a lane that meets no distance below `+∞` returns.
/// The lanes run [`PORTABLE_LANES`] at a time.
// Row `r` indexes every one of the `D` columns.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn nearest_lanes<const D: usize>(
    cols: &[&[f32]; D],
    xs: &[[f32; POINT_LANES]; D],
    best: &mut [f32; POINT_LANES],
    idx: &mut [u32; POINT_LANES],
) {
    let rows = cols.first().map_or(0, |c| c.len());
    for part in 0..POINT_LANES / PORTABLE_LANES {
        let lanes = part * PORTABLE_LANES;
        let x: [[f32; PORTABLE_LANES]; D] =
            std::array::from_fn(|j| std::array::from_fn(|l| xs[j][lanes + l]));
        let mut low = [f32::INFINITY; PORTABLE_LANES];
        let mut at = [0u32; PORTABLE_LANES];
        for r in 0..rows {
            let mut dist = [0.0f32; PORTABLE_LANES];
            for j in 0..D {
                let c = cols[j][r];
                for l in 0..PORTABLE_LANES {
                    let t = x[j][l] - c;
                    // `0 + t²` is `t²`: the first coordinate starts the sum.
                    dist[l] = if j == 0 { t * t } else { dist[l] + t * t };
                }
            }
            for l in 0..PORTABLE_LANES {
                let closer = dist[l] < low[l];
                low[l] = if closer { dist[l] } else { low[l] };
                at[l] = if closer { r as u32 } else { at[l] };
            }
        }
        best[lanes..][..PORTABLE_LANES].copy_from_slice(&low);
        idx[lanes..][..PORTABLE_LANES].copy_from_slice(&at);
    }
}

/// The AVX2 arm of [`NearestRows::nearest_each`]: [`nearest_lanes`] on four
/// eight-lane registers, in its order and without FMA — `vsubps`, `vmulps`,
/// `vaddps` per coordinate, then `vcmpltps` and `vminps(d, best)` (which is
/// `d < best ? d : best`, the portable select) and a blend of the row index
/// — so the arms return the same bits. Written out rather than the portable
/// body compiled under `#[target_feature]`: compiled so, the body kept a
/// branch per lane for the select and ran 142–165 ns a point for 64
/// two-dimensional rows, against 16–20 here.
///
/// # Safety
///
/// Requires AVX2.
// Row `r` indexes every one of the `D` columns.
#[allow(clippy::needless_range_loop)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nearest_lanes_avx2<const D: usize>(
    cols: &[&[f32]; D],
    xs: &[[f32; POINT_LANES]; D],
    best: &mut [f32; POINT_LANES],
    idx: &mut [u32; POINT_LANES],
) {
    use std::arch::x86_64::*;
    const REGS: usize = POINT_LANES / 8;
    let rows = cols.first().map_or(0, |c| c.len());
    let x: [[__m256; REGS]; D] = std::array::from_fn(|j| {
        // SAFETY: `xs[j]` holds POINT_LANES = REGS × 8 values, and register
        // `h` starts at `8h`.
        std::array::from_fn(|h| unsafe { _mm256_loadu_ps(xs[j].as_ptr().add(8 * h)) })
    });
    let mut low = [_mm256_set1_ps(f32::INFINITY); REGS];
    let mut at = [_mm256_setzero_ps(); REGS];
    let mut row = _mm256_setzero_si256();
    let one = _mm256_set1_epi32(1);
    for r in 0..rows {
        let mut d = [_mm256_setzero_ps(); REGS];
        for j in 0..D {
            let c = _mm256_set1_ps(cols[j][r]);
            for h in 0..REGS {
                let t = _mm256_sub_ps(x[j][h], c);
                let tt = _mm256_mul_ps(t, t);
                // `0 + t²` is `t²`: the first coordinate starts the sum.
                d[h] = if j == 0 { tt } else { _mm256_add_ps(d[h], tt) };
            }
        }
        for h in 0..REGS {
            let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(d[h], low[h]);
            low[h] = _mm256_min_ps(d[h], low[h]);
            at[h] = _mm256_blendv_ps(at[h], _mm256_castsi256_ps(row), closer);
        }
        row = _mm256_add_epi32(row, one);
    }
    for h in 0..REGS {
        // SAFETY: `best` and `idx` hold POINT_LANES = REGS × 8 values.
        unsafe {
            _mm256_storeu_ps(best.as_mut_ptr().add(8 * h), low[h]);
            _mm256_storeu_ps(idx.as_mut_ptr().add(8 * h) as *mut f32, at[h]);
        }
    }
}

/// The AVX-512 arm of [`NearestRows::nearest_each`]: [`nearest_lanes`] on
/// two sixteen-lane registers, the AVX2 arm's arithmetic, with the compare
/// into a mask register that then moves the closer distances and their
/// row into `best` / `idx`. For 64 two-dimensional rows ≈ 7 ns a point
/// against the AVX2 arm's ≈ 11.6 in the same binary.
///
/// # Safety
///
/// Requires AVX-512F.
// Row `r` indexes every one of the `D` columns.
#[allow(clippy::needless_range_loop)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn nearest_lanes_avx512<const D: usize>(
    cols: &[&[f32]; D],
    xs: &[[f32; POINT_LANES]; D],
    best: &mut [f32; POINT_LANES],
    idx: &mut [u32; POINT_LANES],
) {
    use std::arch::x86_64::*;
    const REGS: usize = POINT_LANES / 16;
    let rows = cols.first().map_or(0, |c| c.len());
    let x: [[__m512; REGS]; D] = std::array::from_fn(|j| {
        // SAFETY: `xs[j]` holds POINT_LANES = REGS × 16 values, and register
        // `h` starts at `16h`.
        std::array::from_fn(|h| unsafe { _mm512_loadu_ps(xs[j].as_ptr().add(16 * h)) })
    });
    let mut low = [_mm512_set1_ps(f32::INFINITY); REGS];
    let mut at = [_mm512_setzero_si512(); REGS];
    let mut row = _mm512_setzero_si512();
    let one = _mm512_set1_epi32(1);
    for r in 0..rows {
        let mut d = [_mm512_setzero_ps(); REGS];
        for j in 0..D {
            let c = _mm512_set1_ps(cols[j][r]);
            for h in 0..REGS {
                let t = _mm512_sub_ps(x[j][h], c);
                let tt = _mm512_mul_ps(t, t);
                // `0 + t²` is `t²`: the first coordinate starts the sum.
                d[h] = if j == 0 { tt } else { _mm512_add_ps(d[h], tt) };
            }
        }
        for h in 0..REGS {
            let closer = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(d[h], low[h]);
            low[h] = _mm512_mask_mov_ps(low[h], closer, d[h]);
            at[h] = _mm512_mask_mov_epi32(at[h], closer, row);
        }
        row = _mm512_add_epi32(row, one);
    }
    for h in 0..REGS {
        // SAFETY: `best` and `idx` hold POINT_LANES = REGS × 16 values.
        unsafe {
            _mm512_storeu_ps(best.as_mut_ptr().add(16 * h), low[h]);
            _mm512_storeu_si512(idx.as_mut_ptr().add(16 * h) as *mut __m512i, at[h]);
        }
    }
}

/// The **selective-table kernel**, JUNO's front half on a CPU. Row `r` of
/// the table is one subspace: its codebook held column-major in
/// `xs[r * E..][..E]`, `ys[r * E..][..E]` (`E = xs.len() / rows`), the
/// projection `ps[r]` and the limit `limits[r]`. Every entry's `out` value
/// is its exact value against the projection where the scene's predicate
/// selects it and `NaN` where it does not; the return value counts the
/// selected entries.
///
/// * **L2:** the value is `d² = (p₀ − x)² + (p₁ − y)²`, the arithmetic and
///   order of [`l2_squared`] on two coordinates (so an entry equals the
///   dense ADC table's bit for bit); selected when `d² ≤ limit`.
/// * **MIPS:** the value is `IP = 0 + p₀·x + p₁·y`, the arithmetic and order
///   of [`crate::metric::inner_product`]; selected when `IP ≥ limit`.
///
/// A NaN value or limit selects nothing. Both arms run one element-wise
/// body, the AVX2 one compiled with AVX2 but not FMA enabled: widening
/// never fuses a multiply into an add, so the arms return the same bits.
///
/// # Panics
///
/// Panics unless `limits` has one value per projection and `xs`, `ys` and
/// `out` have the same length, a whole number of rows.
pub fn selective_table(
    metric: Metric,
    ps: &[[f32; 2]],
    limits: &[f32],
    xs: &[f32],
    ys: &[f32],
    out: &mut [f32],
) -> usize {
    let rows = ps.len();
    assert_eq!(limits.len(), rows, "selective_table: one limit per row");
    assert!(
        xs.len() == out.len() && ys.len() == out.len(),
        "selective_table: column and output lengths differ"
    );
    if rows == 0 {
        assert!(out.is_empty(), "selective_table: entries without a row");
        return 0;
    }
    assert_eq!(out.len() % rows, 0, "selective_table: ragged rows");
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2 confirmed at runtime.
        return unsafe { selective_table_avx2(metric, ps, limits, xs, ys, out) };
    }
    selective_table_scalar(metric, ps, limits, xs, ys, out)
}

/// The portable arm of [`selective_table`], and the one body of both arms:
/// [`selective_table_avx2`] is this function compiled with AVX2 enabled.
#[inline(always)]
fn selective_table_scalar(
    metric: Metric,
    ps: &[[f32; 2]],
    limits: &[f32],
    xs: &[f32],
    ys: &[f32],
    out: &mut [f32],
) -> usize {
    let entries = out.len() / ps.len().max(1);
    let mut selected = 0usize;
    for (r, (p, &limit)) in ps.iter().zip(limits).enumerate() {
        let row = r * entries..(r + 1) * entries;
        let (xs, ys, out) = (&xs[row.clone()], &ys[row.clone()], &mut out[row]);
        selected += match metric {
            Metric::L2 => select_row(xs, ys, out, |x, y| {
                let (dx, dy) = (p[0] - x, p[1] - y);
                let v = dx * dx + dy * dy;
                (v, v <= limit)
            }),
            Metric::InnerProduct => select_row(xs, ys, out, |x, y| {
                let v = 0.0 + p[0] * x + p[1] * y;
                (v, v >= limit)
            }),
        };
    }
    selected
}

/// One row of [`selective_table`]: `value` maps an entry to its value and
/// whether it is selected.
#[inline(always)]
fn select_row(
    xs: &[f32],
    ys: &[f32],
    out: &mut [f32],
    value: impl Fn(f32, f32) -> (f32, bool),
) -> usize {
    let mut selected = 0u32;
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let (v, hit) = value(x, y);
        *o = if hit { v } else { f32::NAN };
        selected += u32::from(hit);
    }
    selected as usize
}

/// The AVX2 arm of [`selective_table`]: the portable body compiled with
/// AVX2 (and not FMA) enabled, which the compiler widens to eight entries a
/// step.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn selective_table_avx2(
    metric: Metric,
    ps: &[[f32; 2]],
    limits: &[f32],
    xs: &[f32],
    ys: &[f32],
    out: &mut [f32],
) -> usize {
    selective_table_scalar(metric, ps, limits, xs, ys, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{seeded, Rng};

    fn random_svals(rng: &mut impl Rng, subspaces: usize, entries: usize, lo: f32) -> Vec<f32> {
        (0..subspaces * entries)
            .map(|_| lo + rng.gen_range(0.0f32..10.0))
            .collect()
    }

    /// Packs point-major codes into interleaved rows the way
    /// `juno_quant::layout` does, for kernel-level tests.
    fn interleave(codes: &[u8], n: usize, subspaces: usize, nibble: bool) -> Vec<u8> {
        let rb = row_bytes(nibble);
        let mut rows = vec![0u8; subspaces * rb];
        for i in 0..n {
            for s in 0..subspaces {
                let c = codes[i * subspaces + s];
                if nibble {
                    let slot = &mut rows[s * rb + (i & 15)];
                    if i < 16 {
                        *slot |= c & 0x0F;
                    } else {
                        *slot |= (c & 0x0F) << 4;
                    }
                } else {
                    rows[s * rb + i] = c;
                }
            }
        }
        rows
    }

    /// The SIMD arms this CPU can run, probed here (the process-wide
    /// dispatch is cached, and may be forced to the portable arms).
    fn simd_arms() -> Vec<Arm> {
        let mut arms = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                arms.push(Arm::Avx2);
                if has!("avx512vbmi") && has!("avx512vl") && has!("avx512bw") {
                    arms.push(Arm::Avx512Vbmi);
                }
            }
        }
        arms
    }

    /// `build_impl` as it was before its loops were made vectorisable: one
    /// serial `min`/`max` chain per row and an `i64` estimate. The reference
    /// the quantiser must match.
    fn build_reference<F: Fn(f32) -> f32>(
        svals: &[f32],
        subspaces: usize,
        entries: usize,
        const_term: f32,
        map: F,
    ) -> QuantizedLut {
        let stride = entries.next_multiple_of(16);
        let mut out = QuantizedLut {
            q: vec![0; padded_lut_len(subspaces, stride)],
            stride,
            subspaces,
            entries,
            lo: vec![0.0; subspaces],
            suffix_min: vec![0; subspaces + 1],
            ..QuantizedLut::default()
        };
        let (mut span_max, mut lo_sum, mut mag_sum) = (0f32, 0f64, 0f64);
        for s in 0..subspaces {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &raw in &svals[s * entries..(s + 1) * entries] {
                let v = map(raw);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            out.lo[s] = lo;
            span_max = span_max.max(hi - lo);
            lo_sum += lo as f64;
            mag_sum += lo.abs().max(hi.abs()) as f64;
        }
        let delta = if span_max.is_finite() && span_max > 0.0 {
            span_max / 255.0
        } else {
            0.0
        };
        out.delta = delta as f64;
        out.base = const_term as f64 + lo_sum;
        out.margin = (out.delta + 1e-5 * (mag_sum + const_term.abs() as f64)).max(1e-30);
        if delta > 0.0 {
            let inv_delta = 1.0 / delta;
            for s in 0..subspaces {
                let lo = out.lo[s];
                for e in 0..entries {
                    let v = map(svals[s * entries + e]);
                    let est = ((v - lo) * inv_delta) as i64;
                    let over = (lo + est as f32 * delta > v) as i64;
                    out.q[s * stride + e] = (est - over).clamp(0, 255) as u8;
                }
            }
        }
        for s in (0..subspaces).rev() {
            let row = &out.q[s * stride..s * stride + entries];
            out.suffix_min[s] =
                out.suffix_min[s + 1] + row.iter().copied().min().unwrap_or(0) as u32;
        }
        out
    }

    fn assert_matches_reference(got: &QuantizedLut, want: &QuantizedLut, label: &str) {
        assert_eq!(got.q, want.q, "{label}: q");
        assert_eq!(got.suffix_min, want.suffix_min, "{label}: suffix_min");
        assert_eq!(got.delta.to_bits(), want.delta.to_bits(), "{label}: delta");
        assert_eq!(got.base.to_bits(), want.base.to_bits(), "{label}: base");
        assert_eq!(
            got.margin.to_bits(),
            want.margin.to_bits(),
            "{label}: margin"
        );
        // Equal, not bit-equal: which zero stands for a ±0 tie is open.
        assert_eq!(got.lo, want.lo, "{label}: lo");
        assert_eq!(
            (got.stride, got.subspaces, got.entries),
            (want.stride, want.subspaces, want.entries)
        );
    }

    #[test]
    fn build_matches_the_serial_reference_on_seeded_tables() {
        let mut rng = seeded(0xB17);
        let mut qlut = QuantizedLut::new();
        for (subspaces, entries) in [
            (48, 64),
            (5, 37),
            (3, 256),
            (7, 1),
            (4, 7),
            (2, 16),
            (6, 17),
        ] {
            for case in 0..12 {
                // A dense selective decode: values with NaN holes…
                let mut dense = random_svals(&mut rng, subspaces, entries, -3.0);
                for v in dense.iter_mut() {
                    if rng.gen_range(0..4usize) != 0 {
                        *v = f32::NAN;
                    }
                }
                // …rows of one value, of signed zeros, of nothing selected…
                for s in 0..subspaces {
                    let row = &mut dense[s * entries..(s + 1) * entries];
                    match (case + s) % 6 {
                        0 => row.fill(1.25),
                        1 => {
                            // Signs drawn per entry: which zero a ±0 tie
                            // keeps shows in `lo`'s bits.
                            for v in row.iter_mut() {
                                *v = if rng.gen_range(0..2u32) == 0 {
                                    0.0
                                } else {
                                    -0.0
                                };
                            }
                        }
                        2 => row.fill(f32::NAN),
                        _ => {}
                    }
                }
                // …and, in some cases, a non-finite value.
                let at = rng.gen_range(0..dense.len());
                match case % 4 {
                    1 => dense[at] = f32::INFINITY,
                    2 => dense[at] = f32::NEG_INFINITY,
                    _ => {}
                }
                let const_term = [0.0, -0.0, 2.5, -7.0][case % 4];
                let label = format!("{subspaces}x{entries} case {case}");

                qlut.build(&dense, subspaces, entries, const_term);
                let want = build_reference(&dense, subspaces, entries, const_term, |v| v);
                assert_matches_reference(&qlut, &want, &format!("{label} dense"));

                for (negate, unselected) in [(false, 4.5f32), (true, 0.0), (false, f32::NAN)] {
                    qlut.build_selective(
                        &dense, subspaces, entries, const_term, unselected, negate,
                    );
                    let want = build_reference(&dense, subspaces, entries, const_term, |v| {
                        if v.is_nan() {
                            unselected
                        } else if negate {
                            -v
                        } else {
                            v
                        }
                    });
                    let label =
                        format!("{label} selective negate {negate} unselected {unselected}");
                    assert_matches_reference(&qlut, &want, &label);

                    // Each arm of the quantiser, called directly: the
                    // reference's values, and the portable arm's bytes and
                    // bits (`lo` included, ±0 ties and all).
                    let map = ScoreMap { unselected, negate };
                    let mut portable = QuantizedLut::new();
                    portable.build_impl(&dense, subspaces, entries, const_term, map, Arm::Scalar);
                    assert_matches_reference(&portable, &want, &format!("{label} (scalar)"));
                    for arm in simd_arms() {
                        let mut got = QuantizedLut::new();
                        got.build_impl(&dense, subspaces, entries, const_term, map, arm);
                        assert_matches_reference(&got, &want, &format!("{label} ({arm:?})"));
                        let bits = |q: &QuantizedLut| -> Vec<u32> {
                            q.lo.iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&portable), "{label} ({arm:?}): lo bits");
                    }
                }
            }
        }
    }

    #[test]
    fn quantised_sum_dequantises_to_a_lower_bound() {
        let mut rng = seeded(7);
        for case in 0..30u64 {
            let subspaces = rng.gen_range(1..20usize);
            let entries = [8usize, 16, 33, 64, 200, 256][case as usize % 6];
            let lo = if case % 2 == 0 { 0.0 } else { -40.0 };
            let svals = random_svals(&mut rng, subspaces, entries, lo);
            let const_term = rng.gen_range(-5.0f32..5.0);
            let mut q = QuantizedLut::new();
            q.build(&svals, subspaces, entries, const_term);

            for _ in 0..50 {
                let code: Vec<u8> = (0..subspaces)
                    .map(|_| rng.gen_range(0..entries as u32) as u8)
                    .collect();
                let exact: f32 = const_term
                    + code
                        .iter()
                        .enumerate()
                        .map(|(s, &e)| svals[s * entries + e as usize])
                        .sum::<f32>();
                let qsum: u32 = code
                    .iter()
                    .enumerate()
                    .map(|(s, &e)| q.q[s * q.stride + e as usize] as u32)
                    .sum();
                let bound = q.base + q.delta * qsum as f64 - q.margin;
                assert!(
                    bound <= exact as f64 + 1e-6,
                    "case {case}: bound {bound} exceeds exact {exact}"
                );
                // The prune rule itself: if qsum clears the threshold built
                // from `exact` as the worst score, then the candidate's own
                // exact value cannot be strictly better than that worst.
                let t = q.prune_threshold(Some(exact));
                if qsum >= t {
                    assert!(
                        q.base + q.delta * qsum as f64 - q.margin >= exact as f64,
                        "case {case}: unsafe prune"
                    );
                }
            }
            assert!(q.cluster_bound() <= q.base + q.delta * 255.0 * subspaces as f64);
            assert_eq!(q.prune_threshold(None), NEVER_PRUNE);
        }
    }

    #[test]
    fn degenerate_spans_never_prune_unsafely() {
        let mut q = QuantizedLut::new();
        // All values identical: delta = 0, every bound equals base − margin
        // (just under 6 here). A worst score below the bound prunes
        // everything; a worst score above it prunes nothing.
        q.build(&[3.0; 2 * 8], 2, 8, 0.0);
        assert_eq!(q.prune_threshold(Some(2.0)), 0, "everything prunable");
        assert_eq!(q.prune_threshold(Some(100.0)), NEVER_PRUNE);
        assert!(q.cluster_bound() <= 6.0 && q.cluster_bound() > 5.9);
    }

    #[test]
    fn scalar_and_dispatched_kernels_agree_bit_exactly() {
        let mut rng = seeded(99);
        for case in 0..40u64 {
            let subspaces = rng.gen_range(1..60usize);
            let nibble = case % 3 == 0;
            let entries = if nibble {
                16
            } else {
                [17usize, 32, 64, 256][case as usize % 4]
            };
            let stride = entries.next_multiple_of(16);
            let qlut: Vec<u8> = (0..subspaces * stride)
                .map(|_| rng.gen_range(0..256u32) as u8)
                .collect();
            let n = rng.gen_range(1..33usize);
            let codes: Vec<u8> = (0..n * subspaces)
                .map(|_| rng.gen_range(0..entries as u32) as u8)
                .collect();
            let rows = interleave(&codes, n, subspaces, nibble);

            let mut acc_dispatch = [0u16; BLOCK_LANES];
            accumulate_rows(
                &qlut,
                stride,
                &rows,
                nibble,
                0,
                subspaces,
                &mut acc_dispatch,
            );
            let mut acc_scalar = [0u16; BLOCK_LANES];
            accumulate_rows_scalar(&qlut, stride, &rows, nibble, 0, subspaces, &mut acc_scalar);
            assert_eq!(acc_dispatch, acc_scalar, "case {case} ({})", kernel_name());

            // Reference: direct point-major accumulation for real lanes.
            for (i, chunk) in codes.chunks(subspaces).enumerate() {
                let mut want = 0u16;
                for (s, &c) in chunk.iter().enumerate() {
                    want = want.saturating_add(qlut[s * stride + c as usize] as u16);
                }
                assert_eq!(acc_dispatch[i], want, "case {case} lane {i}");
            }
        }
    }

    #[test]
    fn saturation_keeps_sums_below_true_totals() {
        // 300 subspaces of value 255 would overflow u16; the kernel must
        // saturate (a lower sum = weaker bound = safe).
        let subspaces = 300;
        let stride = 16;
        let qlut = vec![255u8; subspaces * stride];
        let rows = vec![0u8; subspaces * U8_ROW_BYTES];
        let mut acc = [0u16; BLOCK_LANES];
        accumulate_rows(&qlut, stride, &rows, false, 0, subspaces, &mut acc);
        assert!(acc.iter().all(|&a| a == u16::MAX));
    }

    #[test]
    fn abandon_fires_only_when_every_lane_is_dead() {
        let mut rng = seeded(1234);
        for case in 0..30u64 {
            let subspaces = rng.gen_range(9..40usize);
            let entries = 32;
            let svals = random_svals(&mut rng, subspaces, entries, 0.0);
            let mut q = QuantizedLut::new();
            q.build(&svals, subspaces, entries, 0.0);
            let n = rng.gen_range(1..33usize);
            let codes: Vec<u8> = (0..n * subspaces)
                .map(|_| rng.gen_range(0..entries as u32) as u8)
                .collect();
            let rows = interleave(&codes, n, subspaces, false);

            let mut full = [0u16; BLOCK_LANES];
            accumulate_block(&q.q, q.stride, subspaces, &rows, false, &mut full);

            for worst in [f32::NEG_INFINITY, 1.0, 50.0, 1e9] {
                let t = q.prune_threshold(Some(worst));
                let mut acc = [0u16; BLOCK_LANES];
                let abandoned = scan_block_with_abandon(&q, &rows, false, t, &mut acc);
                if abandoned {
                    // Every lane's *full* sum must clear the threshold.
                    for (l, &f) in full.iter().enumerate() {
                        assert!(
                            f as u32 >= t,
                            "case {case}: abandoned but lane {l} sum {f} < {t}"
                        );
                    }
                } else {
                    assert_eq!(acc, full, "case {case}: non-abandoned sums must be full");
                }
            }
        }
    }

    /// The VBMI arm of the fused pass, called directly, against
    /// [`accumulate_rows_scalar`]: E in one to four 64-entry quarters,
    /// tables exactly [`padded_lut_len`] long (so the last row's 64-byte
    /// reads end at the buffer's end), codes up to `E − 1`, sums that
    /// saturate, and the last row of a padded [`QuantizedLut`].
    #[test]
    fn vbmi_accumulate_arm_matches_the_scalar_definition() {
        if !simd_arms().contains(&Arm::Avx512Vbmi) {
            eprintln!("skip: this CPU lacks AVX-512 VBMI, VL or BW");
            return;
        }
        let mut rng = seeded(0x0B_1B);
        for entries in [17usize, 32, 33, 48, 64, 100, 256] {
            let stride = entries.next_multiple_of(16);
            for case in 0..16usize {
                // Past 257 rows of 255 a lane saturates.
                let subspaces = [1usize, 7, 48, 300][case % 4];
                let high = case % 4 == 3;
                let qlut: Vec<u8> = (0..padded_lut_len(subspaces, stride))
                    .map(|_| {
                        if high {
                            255 - rng.gen_range(0..3u32) as u8
                        } else {
                            rng.gen_range(0..256u32) as u8
                        }
                    })
                    .collect();
                let n = 1 + (case * 5) % BLOCK_LANES;
                let codes: Vec<u8> = (0..n * subspaces)
                    .map(|i| match i % 5 {
                        0 => (entries - 1) as u8,
                        _ => rng.gen_range(0..entries as u32) as u8,
                    })
                    .collect();
                let rows = interleave(&codes, n, subspaces, false);
                let (s0, s1) = if case % 8 < 4 {
                    (0, subspaces)
                } else {
                    (subspaces / 3, subspaces)
                };
                let mut want = [7u16; BLOCK_LANES];
                accumulate_rows_scalar(&qlut, stride, &rows, false, s0, s1, &mut want);
                let mut got = [7u16; BLOCK_LANES];
                let pass = Pass::new(&qlut, stride, &rows, false, s0..s1, None);
                assert!(pass.padded());
                // SAFETY: VBMI, VL, BW and AVX2 detected above; 8-bit rows,
                // padded LUT (asserted).
                let abandoned = unsafe { pass.run_vbmi(&mut got) };
                assert!(!abandoned);
                assert_eq!(got, want, "E {entries} case {case} subspaces {subspaces}");
                if subspaces == 300 && s0 == 0 {
                    assert!(want[..n].iter().all(|&a| a == u16::MAX), "saturates");
                }
            }
        }
        // The last row of a `QuantizedLut` at E = 17 and E = 32: the arm
        // reads 64 bytes from its start, past `subspaces × stride`, inside
        // the padding `build` allocates; codes `E − 1` and `E − 2` there
        // read their own entries.
        for entries in [17usize, 32] {
            for subspaces in [1usize, 3, 48] {
                let svals = random_svals(&mut rng, subspaces, entries, -2.0);
                let mut q = QuantizedLut::new();
                q.build(&svals, subspaces, entries, 0.0);
                assert_eq!(q.q.len(), (subspaces - 1) * q.stride + 64);
                let codes: Vec<u8> = (0..BLOCK_LANES * subspaces)
                    .map(|i| {
                        if i % subspaces == subspaces - 1 {
                            (entries - 1 - i % 2) as u8
                        } else {
                            rng.gen_range(0..entries as u32) as u8
                        }
                    })
                    .collect();
                let rows = interleave(&codes, BLOCK_LANES, subspaces, false);
                let mut want = [0u16; BLOCK_LANES];
                accumulate_rows_scalar(&q.q, q.stride, &rows, false, 0, subspaces, &mut want);
                let mut got = [0u16; BLOCK_LANES];
                let pass = Pass::new(&q.q, q.stride, &rows, false, 0..subspaces, None);
                // SAFETY: VBMI, VL, BW and AVX2 detected above; 8-bit rows;
                // the LUT holds `padded_lut_len` bytes (asserted above).
                unsafe { pass.run_vbmi(&mut got) };
                assert_eq!(got, want, "last row: E {entries} S {subspaces}");
            }
        }
    }

    /// Both fused SIMD abandon kernels, called directly, against the
    /// chunked scalar reference: the same abandon decision at every
    /// threshold and the same lane sums, abandoned or not, for both
    /// packings and one to four quarters.
    #[test]
    fn fused_abandon_arms_match_the_chunked_scalar_reference() {
        let arms = simd_arms();
        if arms.is_empty() {
            eprintln!("skip: this CPU lacks AVX2");
            return;
        }
        let mut rng = seeded(0xAB4D);
        let (mut fired, mut kept) = (0usize, 0usize);
        for entries in [16usize, 17, 32, 64, 100, 256] {
            for case in 0..24usize {
                let subspaces = [3usize, 8, 9, 17, 48, 64][case % 6];
                let nibble = entries == 16 && case % 2 == 0;
                let svals = random_svals(&mut rng, subspaces, entries, 0.0);
                let mut q = QuantizedLut::new();
                q.build(&svals, subspaces, entries, 0.0);
                let n = 1 + (case * 11) % BLOCK_LANES;
                let codes: Vec<u8> = (0..n * subspaces)
                    .map(|_| rng.gen_range(0..entries as u32) as u8)
                    .collect();
                let rows = interleave(&codes, n, subspaces, nibble);
                let full = q.suffix_min[0] + 255 * subspaces as u32;
                let thresholds = [
                    0,
                    1,
                    q.suffix_min[0],
                    q.suffix_min[0] + rng.gen_range(0..=full / 2),
                    rng.gen_range(0..=full),
                    full,
                ];
                for threshold in thresholds {
                    let abandon = Some(Abandon {
                        suffix_min: &q.suffix_min,
                        threshold,
                    });
                    let pass = Pass::new(&q.q, q.stride, &rows, nibble, 0..subspaces, abandon);
                    let mut want = [0u16; BLOCK_LANES];
                    let want_abandoned = pass.run_scalar(&mut want);
                    if want_abandoned {
                        fired += 1;
                    } else {
                        kept += 1;
                    }
                    let label = format!("E {entries} case {case} T {threshold} nibble {nibble}");
                    for &arm in &arms {
                        let mut got = [0u16; BLOCK_LANES];
                        // SAFETY: `arm`'s features were detected by
                        // `simd_arms`; the VBMI arm gets 8-bit rows and a
                        // `QuantizedLut`'s padded rows.
                        let got_abandoned = unsafe {
                            match arm {
                                Arm::Avx512Vbmi if !nibble => pass.run_vbmi(&mut got),
                                _ => pass.run_avx2(&mut got),
                            }
                        };
                        assert_eq!(got_abandoned, want_abandoned, "{label} ({arm:?})");
                        assert_eq!(got, want, "{label} ({arm:?}): lane sums");
                    }
                    let mut got = [0u16; BLOCK_LANES];
                    let dispatched =
                        scan_block_with_abandon(&q, &rows, nibble, threshold, &mut got);
                    assert_eq!(
                        (dispatched, got),
                        (want_abandoned, want),
                        "{label} (dispatched)"
                    );
                }
            }
        }
        assert!(
            fired > 50 && kept > 50,
            "both outcomes covered: {fired} / {kept}"
        );
    }

    #[test]
    fn lane_decoding_matches_both_packings() {
        let mut rng = seeded(5);
        let codes: Vec<u8> = (0..32).map(|_| rng.gen_range(0..16u32) as u8).collect();
        for nibble in [false, true] {
            let rows = interleave(&codes, 32, 1, nibble);
            for (l, &c) in codes.iter().enumerate() {
                assert_eq!(block_lane_code(&rows, nibble, l), c, "lane {l}");
            }
        }
    }

    /// The per-candidate loop over point-major codes: what the exact block
    /// scorer must reproduce, lane by lane.
    fn reference_lane(table: &[f32], entries: usize, code: &[u8]) -> (u32, u32) {
        let (mut sum, mut covered) = (0.0f32, 0u32);
        for (s, &e) in code.iter().enumerate() {
            let v = table[s * entries + e as usize];
            if !v.is_nan() {
                sum += v;
                covered += 1;
            }
        }
        (sum.to_bits(), covered)
    }

    /// Both arms this host can run, called directly.
    fn exact_block_arms(
        table: &[f32],
        entries: usize,
        subspaces: usize,
        rows: &[u8],
        nibble: bool,
    ) -> Vec<(&'static str, ExactLanes)> {
        let mut out = ExactLanes::default();
        exact_block_sums_scalar(table, entries, subspaces, rows, nibble, &mut out);
        let mut arms = vec![("scalar", out)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = ExactLanes::default();
            // SAFETY: AVX2 detected; the shapes are the callers' (checked
            // by the dispatched call each test also makes).
            unsafe { exact_block_sums_avx2(table, entries, subspaces, rows, nibble, &mut out) };
            arms.push(("avx2", out));
        }
        let mut out = ExactLanes::default();
        exact_block_sums(table, entries, subspaces, rows, nibble, &mut out);
        arms.push(("dispatched", out));
        arms
    }

    #[test]
    fn exact_block_arms_match_the_per_candidate_loop() {
        let mut rng = seeded(0xB10C);
        for entries in [1usize, 7, 16, 64, 256] {
            for density in [0.0f64, 0.2, 1.0] {
                for case in 0..12usize {
                    let subspaces = [1usize, 8, 48, 33][case % 4];
                    // Selected values of either sign, signed zeros and the
                    // odd infinity beside NaN holes.
                    let table: Vec<f32> = (0..subspaces * entries)
                        .map(|_| {
                            if rng.gen_range(0.0f64..1.0) >= density {
                                return f32::NAN;
                            }
                            match rng.gen_range(0..16u32) {
                                0 => 0.0,
                                1 => -0.0,
                                2 if case % 3 == 0 => f32::INFINITY,
                                3 if case % 5 == 0 => f32::NEG_INFINITY,
                                _ => rng.gen_range(-8.0f32..8.0),
                            }
                        })
                        .collect();
                    // Tail blocks of every length, codes of either packing.
                    let n = 1 + (case * 7 + entries) % BLOCK_LANES;
                    let codes: Vec<u8> = (0..n * subspaces)
                        .map(|_| rng.gen_range(0..entries as u32) as u8)
                        .collect();
                    for nibble in [false, true] {
                        if nibble && entries > 16 {
                            continue;
                        }
                        let rows = interleave(&codes, n, subspaces, nibble);
                        let label =
                            format!("E {entries} density {density} case {case} nibble {nibble}");
                        for (arm, got) in
                            exact_block_arms(&table, entries, subspaces, &rows, nibble)
                        {
                            for (l, code) in codes.chunks(subspaces).enumerate() {
                                assert_eq!(
                                    (got.sums[l].to_bits(), got.covered[l]),
                                    reference_lane(&table, entries, code),
                                    "{label} ({arm}) lane {l}"
                                );
                            }
                            if density == 0.0 {
                                assert_eq!(got.covered, [0; BLOCK_LANES], "{label} ({arm})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_code_past_the_table_reads_its_rows_last_entry() {
        // A corrupt code (here in the last subspace, where an unclamped
        // gather would read past the table) is read as `entries − 1` by
        // every arm; the valid codes beside it keep their own entries.
        let (subspaces, entries) = (3usize, 16usize);
        let table: Vec<f32> = (0..subspaces * entries).map(|i| i as f32).collect();
        let mut codes: Vec<u8> = (0..BLOCK_LANES * subspaces)
            .map(|i| (i % entries) as u8)
            .collect();
        for l in [0usize, 9, 31] {
            codes[l * subspaces + subspaces - 1] = [16, 200, 255][l % 3];
        }
        let rows = interleave(&codes, BLOCK_LANES, subspaces, false);
        for (arm, got) in exact_block_arms(&table, entries, subspaces, &rows, false) {
            for (l, code) in codes.chunks(subspaces).enumerate() {
                let clamped: Vec<u8> = code.iter().map(|&c| c.min(entries as u8 - 1)).collect();
                assert_eq!(
                    (got.sums[l].to_bits(), got.covered[l]),
                    reference_lane(&table, entries, &clamped),
                    "{arm} lane {l}"
                );
            }
        }
    }

    /// The loop the nearest-row kernel replaced, as k-means, the coarse
    /// assign and the codebook encoder each wrote it.
    fn plain_nearest(v: &[f32], rows: &[f32]) -> (usize, f32) {
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (r, row) in rows.chunks_exact(v.len()).enumerate() {
            let d = l2_squared(v, row);
            if d < best_d {
                best_d = d;
                best = r;
            }
        }
        (best, best_d)
    }

    fn assert_nearest_matches(v: &[f32], rows: &[f32], table: &NearestRows, label: &str) {
        let want = plain_nearest(v, rows);
        let mut each = (usize::MAX, f32::NAN);
        table.nearest_each(v, v.len(), 1, |_, r, d| each = (r, d));
        for (arm, got) in [
            ("table", table.nearest(v)),
            ("rows", nearest_row(v, rows)),
            ("each", each),
        ] {
            assert_eq!(got.0, want.0, "{label} ({arm}): index");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "{label} ({arm}): bits");
        }
    }

    /// [`l2_squared_rows`] and its AVX2 arm, called directly, against
    /// [`l2_squared`] row by row: widths below, at and past whole chunks,
    /// row counts on both sides of [`WIDE_ROWS`], NaN, ±∞ and ±0 values.
    #[test]
    fn l2_squared_rows_match_l2_squared_bit_for_bit() {
        let mut rng = seeded(0x12A0);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 3e38];
        for dim in (1usize..=17).chain([96, 100]) {
            for n in [0usize, 1, 3, 4, 5, 8, 33] {
                let mut rows: Vec<f32> =
                    (0..n * dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
                for _ in 0..n / 3 {
                    rows[rng.gen_range(0..n * dim)] = special[rng.gen_range(0..special.len())];
                }
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
                if n % 2 == 1 {
                    v[n % dim] = special[n % special.len()];
                }
                let want: Vec<u32> = rows
                    .chunks_exact(dim)
                    .map(|row| l2_squared(&v, row).to_bits())
                    .collect();
                let mut out = vec![f32::NAN; n];
                l2_squared_rows(&v, &rows, &mut out);
                let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                assert_eq!(got, want, "{dim}-d x {n}: dispatched");
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    let mut out = vec![f32::NAN; n];
                    // SAFETY: AVX2 confirmed just above.
                    unsafe { l2_squared_rows_avx2(&v, &rows, &mut out) };
                    let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, want, "{dim}-d x {n}: AVX2 arm");
                } else {
                    eprintln!("skip: this CPU lacks AVX2 (the l2_squared_rows AVX2 arm)");
                }
            }
        }
    }

    /// The arms the batched nearest-row kernel runs on this CPU: the
    /// portable one, the AVX2 one, and on an AVX-512 VBMI host the AVX-512
    /// one (whose wide rows take the AVX2 arm).
    fn nearest_arms() -> Vec<Arm> {
        let simd = simd_arms();
        if !simd.contains(&Arm::Avx2) {
            eprintln!("skip: this CPU lacks AVX2 (the nearest-row AVX2 arms)");
        }
        if !simd.contains(&Arm::Avx512Vbmi) {
            eprintln!("skip: this CPU lacks AVX-512 VBMI, VL or BW (the nearest-row AVX-512 arm)");
        }
        [Arm::Scalar].into_iter().chain(simd).collect()
    }

    /// Every arm of the batched nearest-row kernel, called directly, and the
    /// single-vector one, against the plain `l2_squared` first-minimum loop:
    /// widths on both sides of `NARROW_DIM`, row counts on both sides of
    /// the lane widths, point counts that leave a partial lane group,
    /// strided points, duplicated rows, and NaN, ±∞ and ±0 coordinates in
    /// rows and points. Indices and distance bits must agree.
    #[test]
    fn nearest_row_arms_match_the_plain_first_minimum_loop_bit_for_bit() {
        let mut rng = seeded(0x4EA3);
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for dim in (1usize..=9).chain([16, 96, 100]) {
            for len in [1usize, 7, 8, 9, 63, 64, 65, 256] {
                let mut rows: Vec<f32> = (0..len * dim)
                    .map(|_| rng.gen_range(-4.0f32..4.0))
                    .collect();
                // Duplicated rows: the lower index must win the tie.
                for _ in 0..len / 3 + 1 {
                    let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
                    rows.copy_within(from * dim..(from + 1) * dim, to * dim);
                }
                for _ in 0..len / 8 {
                    rows[rng.gen_range(0..len * dim)] = special[rng.gen_range(0..5usize)];
                }
                let table = NearestRows::new(&rows, dim);
                let (stride, n) = (dim + 3, 2 * POINT_LANES + 5 + len % 7);
                let mut points = vec![0.0f32; n * stride];
                for i in 0..n {
                    let p = &mut points[i * stride..][..dim];
                    match i % 6 {
                        0 => p.copy_from_slice(&rows[(i % len) * dim..][..dim]),
                        1 => p
                            .iter_mut()
                            .for_each(|x| *x = if i % 4 == 1 { 0.0 } else { -0.0 }),
                        2 => p[i % dim] = special[(i / 6) % 5],
                        _ => p.iter_mut().for_each(|x| *x = rng.gen_range(-5.0f32..5.0)),
                    }
                }
                let point = |i: usize| &points[i * stride..][..dim];
                let want: Vec<(usize, u32)> = (0..n)
                    .map(|i| {
                        let (r, d) = plain_nearest(point(i), &rows);
                        (r, d.to_bits())
                    })
                    .collect();
                for arm in nearest_arms() {
                    let label = format!("{dim}-d x {len} rows, {arm:?}");
                    let mut got = Vec::with_capacity(n);
                    table.nearest_each_on(arm, &points, stride, n, |i, r, d| {
                        assert_eq!(i, got.len(), "{label}: points out of order");
                        got.push((r, d.to_bits()));
                    });
                    assert_eq!(got, want, "{label}: batched");
                }
                for (i, &want) in want.iter().enumerate() {
                    let (r, d) = table.nearest(point(i));
                    assert_eq!(
                        (r, d.to_bits()),
                        want,
                        "{dim}-d x {len} rows: point {i} alone"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_rows_match_the_plain_first_minimum_loop() {
        let mut rng = seeded(0x4EA2);
        for dim in [1usize, 2, 3, 4, 8, 12, 96] {
            for len in [1usize, 7, 16, 64, 141, 256] {
                let mut rows: Vec<f32> = (0..len * dim)
                    .map(|_| rng.gen_range(-4.0f32..4.0))
                    .collect();
                // Duplicated rows, some of them blocks apart: the lower
                // index must win the tie.
                for _ in 0..len / 3 {
                    let (from, to) = (rng.gen_range(0..len), rng.gen_range(0..len));
                    rows.copy_within(from * dim..(from + 1) * dim, to * dim);
                }
                let table = NearestRows::new(&rows, dim);
                for case in 0..40usize {
                    let v: Vec<f32> = match case % 4 {
                        // On a (possibly duplicated) row: distance zero, tied.
                        0 => rows[(case % len) * dim..][..dim].to_vec(),
                        1 => vec![0.0; dim],
                        _ => (0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect(),
                    };
                    let label = format!("{dim}-d x {len} case {case}");
                    assert_nearest_matches(&v, &rows, &table, &label);
                }
            }
        }
    }

    #[test]
    fn nearest_rows_keep_the_loop_s_answers_at_the_edges_of_f32() {
        let mut rng = seeded(0xED6E);
        for dim in [1usize, 2, 3, 8, 12] {
            for len in [1usize, 7, 64, 141] {
                // Every distance overflows to +inf: nothing is ever below
                // the initial bound, so the answer is (0, +inf).
                let far = vec![-3e38f32; len * dim];
                let table = NearestRows::new(&far, dim);
                assert_eq!(table.nearest(&vec![3e38; dim]), (0, f32::INFINITY));
                assert_nearest_matches(&vec![3e38; dim], &far, &table, "all +inf");

                // Mixed magnitudes: huge, tiny, zero and overflowing rows
                // beside each other, zero rows included.
                let mut rows = vec![0.0f32; len * dim];
                for x in rows.iter_mut() {
                    *x = match rng.gen_range(0..5usize) {
                        0 => rng.gen_range(-1.0f32..1.0) * 1e19,
                        1 => rng.gen_range(-1.0f32..1.0) * 3e38,
                        2 => rng.gen_range(-1.0f32..1.0) * 1e-20,
                        3 => 0.0,
                        _ => rng.gen_range(-2.0f32..2.0),
                    };
                }
                let table = NearestRows::new(&rows, dim);
                for case in 0..30usize {
                    let scale = [0.0f32, 1.0, 1e-20, 1e19, -3e38][case % 5];
                    let v: Vec<f32> = (0..dim)
                        .map(|_| rng.gen_range(0.5f32..1.0) * scale)
                        .collect();
                    let label = format!("{dim}-d x {len} scale {scale:e}");
                    assert_nearest_matches(&v, &rows, &table, &label);
                }
            }
        }
        assert_eq!(
            NearestRows::new(&[], 2).nearest(&[1.0, 2.0]),
            (0, f32::INFINITY)
        );
    }

    /// Both arms of the selective-table kernel against the per-entry
    /// definition: row widths of whole registers and with tails, one to
    /// several rows, both metrics, per-row limits that select nothing, some
    /// and everything, a NaN limit, and columns holding signed zeros, ties
    /// with the limit and NaNs. Results are compared by bits, and the values
    /// against `l2_squared` / `inner_product` on the two coordinates.
    #[test]
    fn selective_table_arms_match_the_definition_bit_for_bit() {
        use crate::metric::inner_product;
        let mut rng = seeded(0x5E1E);
        for entries in [1usize, 7, 8, 9, 16, 33, 64, 256] {
            for case in 0..24usize {
                let rows = [1usize, 3, 48][case % 3];
                let metric = [Metric::L2, Metric::InnerProduct][case % 2];
                let len = rows * entries;
                let mut xs: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                let mut ys: Vec<f32> = (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
                let ps: Vec<[f32; 2]> = (0..rows)
                    .map(|_| [rng.gen_range(-3.0f32..3.0), rng.gen_range(-3.0f32..3.0)])
                    .collect();
                if case % 4 == 0 {
                    // Signed zeros, an entry on its row's projection, a NaN.
                    xs[0] = -0.0;
                    ys[len / 2] = 0.0;
                    xs[len - 1] = ps[rows - 1][0];
                    ys[len - 1] = ps[rows - 1][1];
                    if len > 2 {
                        xs[1] = f32::NAN;
                    }
                }
                let value = |i: usize| {
                    let p = ps[i / entries];
                    match metric {
                        Metric::L2 => l2_squared(&p, &[xs[i], ys[i]]),
                        Metric::InnerProduct => inner_product(&p, &[xs[i], ys[i]]),
                    }
                };
                // Per row, a limit equal to one entry's value (the tie is
                // selected) or a fixed one.
                let choices = [f32::NAN, 0.0, 4.0, -4.0, f32::INFINITY, f32::NEG_INFINITY];
                for variant in 0..4usize {
                    let limits: Vec<f32> = (0..rows)
                        .map(|r| match (variant + r) % 3 {
                            0 => value(r * entries + (r + case) % entries),
                            _ => choices[(variant * 7 + r + case) % choices.len()],
                        })
                        .collect();
                    let label =
                        format!("{metric:?} {rows}x{entries} case {case} limits {limits:?}");
                    let want: Vec<u32> = (0..len)
                        .map(|i| {
                            let (v, limit) = (value(i), limits[i / entries]);
                            let hit = match metric {
                                Metric::L2 => v <= limit,
                                Metric::InnerProduct => v >= limit,
                            };
                            if hit { v } else { f32::NAN }.to_bits()
                        })
                        .collect();
                    let count = want
                        .iter()
                        .filter(|&&b| !f32::from_bits(b).is_nan())
                        .count();
                    let mut out = vec![0.0f32; len];
                    let mut arms = Vec::new();
                    let n = selective_table_scalar(metric, &ps, &limits, &xs, &ys, &mut out);
                    arms.push(("scalar", n, out.clone()));
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 detected.
                        let n = unsafe {
                            selective_table_avx2(metric, &ps, &limits, &xs, &ys, &mut out)
                        };
                        arms.push(("avx2", n, out.clone()));
                    }
                    let n = selective_table(metric, &ps, &limits, &xs, &ys, &mut out);
                    arms.push(("dispatched", n, out.clone()));
                    for (arm, n, got) in arms {
                        let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, want, "{label} ({arm})");
                        assert_eq!(n, count, "{label} ({arm}): count");
                    }
                }
            }
        }
        assert_eq!(selective_table(Metric::L2, &[], &[], &[], &[], &mut []), 0);
    }

    #[test]
    fn kernel_name_reports_a_known_kernel() {
        assert!(["avx512vbmi", "avx2", "scalar"].contains(&kernel_name()));
    }
}
