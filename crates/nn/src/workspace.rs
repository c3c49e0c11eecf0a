//! The zero-allocation scratch arena of the NN hot path.
//!
//! Selector inference runs once per MCTS search or route, and selector
//! training runs `UNet3d::forward_in`/`backward_in` once per batch; without
//! this workspace every layer would allocate fresh [`Tensor`]s (outputs,
//! caches, copies) on each of those calls. An [`NnWorkspace`] owns all of
//! that reusable state:
//!
//! * a **tensor pool** — layers acquire output/cache storage with
//!   [`NnWorkspace::alloc`] and return it with [`NnWorkspace::free`], so
//!   after warm-up a forward/backward pass performs no heap allocation;
//! * the **tap-offset table** and the padded/transposed gradient buffers
//!   of the implicit-im2col GEMM convolution kernels (see
//!   [`conv3d`](crate::conv3d));
//! * GroupNorm backward scratch;
//! * the Tier A telemetry [`CounterSet`] of the NN subsystem (pool
//!   hits/misses, GEMM dispatch mix, per-U-Net-layer MACs) plus an
//!   optional per-layer-kind Tier B [`SpanSet`] used by the
//!   `unet_throughput` bench to attribute time to
//!   conv/norm/activation/pool/upsample (real durations only under the
//!   `telemetry-timing` feature of `oarsmt-telemetry`).
//!
//! Ownership follows the `RouteContext` model of DESIGN.md: whoever owns an
//! inference or training loop owns one workspace (`RouteContext` embeds one
//! for the selector path, `Trainer` owns one per fit loop, and each
//! `parallel` worker carries its own inside its context). Workspaces are
//! never shared across threads. All workspace state is scratch: reusing a
//! workspace never changes results, only allocation behavior. Whether a
//! pass keeps backward caches is not workspace state either: it follows
//! from the entry point (`Layer::forward_in` keeps them,
//! [`UNet3d::infer_in`](crate::unet::UNet3d::infer_in) does not).

use oarsmt_telemetry::{Counter, CounterSet, Span, SpanSet, SpanStart};

use crate::kernels::{self, KernelPolicy};
use crate::tensor::Tensor;

/// Layer-kind/direction buckets for the optional profile (mapped onto the
/// statically registered `oarsmt-telemetry` [`Span`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfKind {
    /// Convolution forward (incl. `1×1×1` heads and projections).
    ConvFwd,
    /// Convolution backward.
    ConvBwd,
    /// GroupNorm forward.
    NormFwd,
    /// GroupNorm backward.
    NormBwd,
    /// Activation (ReLU/sigmoid) forward.
    ActFwd,
    /// Activation backward.
    ActBwd,
    /// Max-pool forward.
    PoolFwd,
    /// Max-pool backward.
    PoolBwd,
    /// Upsample forward.
    UpFwd,
    /// Upsample backward.
    UpBwd,
}

impl ProfKind {
    /// The telemetry span this bucket records into.
    #[must_use]
    pub fn span(self) -> Span {
        match self {
            ProfKind::ConvFwd => Span::NnConvFwd,
            ProfKind::ConvBwd => Span::NnConvBwd,
            ProfKind::NormFwd => Span::NnNormFwd,
            ProfKind::NormBwd => Span::NnNormBwd,
            ProfKind::ActFwd => Span::NnActFwd,
            ProfKind::ActBwd => Span::NnActBwd,
            ProfKind::PoolFwd => Span::NnPoolFwd,
            ProfKind::PoolBwd => Span::NnPoolBwd,
            ProfKind::UpFwd => Span::NnUpFwd,
            ProfKind::UpBwd => Span::NnUpBwd,
        }
    }
}

/// The reusable scratch arena threaded through `forward_in`/`backward_in`
/// (see [`Layer`](crate::layer::Layer)).
#[derive(Debug, Clone)]
pub struct NnWorkspace {
    /// Recycled tensor storage, LIFO. Whole tensors are pooled (shape and
    /// data vectors both), so a warm [`NnWorkspace::alloc`] performs zero
    /// heap allocation — including the shape metadata.
    pool: Vec<Tensor>,
    /// Per-tap padded-volume offsets (the K axis of the convolution's
    /// implicit patch matrix).
    pub(crate) tap_off: Vec<usize>,
    /// im2col patch panel of the small-grid convolution forward path.
    pub(crate) im2col: Vec<f32>,
    /// Zero-padded `grad_out` of the convolution input-gradient gather.
    pub(crate) g_pad: Vec<f32>,
    /// `grad_out` transposed to `[spatial][out_c]` for the vectorized
    /// weight/bias-gradient kernels.
    pub(crate) g_t: Vec<f32>,
    /// GroupNorm backward `dxhat` scratch.
    pub(crate) dxhat: Vec<f32>,
    profiling: bool,
    spans: SpanSet,
    /// Tier A telemetry of the NN subsystem: pool hits/misses, GEMM
    /// dispatch per path, per-U-Net-layer MACs. Always on; monotone.
    pub counters: CounterSet,
    /// The counter index MACs are attributed to (`Counter::MacsOther`
    /// outside a tagged U-Net layer; the U-Net forward and backward passes
    /// retag it per block via [`NnWorkspace::set_mac_slot`]).
    pub(crate) mac_slot: usize,
    /// Which kernel family conv GEMM calls route through (default
    /// [`KernelPolicy::Scalar`], the bit-identical family).
    kernel_policy: KernelPolicy,
    /// The policy resolved against the build and host, cached at
    /// [`NnWorkspace::set_kernel_policy`] time: `true` iff the AVX2+FMA
    /// lane will actually run (the kernels branch on this plain bool, not
    /// on a CPUID probe).
    simd_active: bool,
}

impl Default for NnWorkspace {
    fn default() -> Self {
        NnWorkspace::new()
    }
}

impl NnWorkspace {
    /// Creates an empty workspace; all buffers grow on first use.
    pub fn new() -> Self {
        NnWorkspace {
            pool: Vec::new(),
            tap_off: Vec::new(),
            im2col: Vec::new(),
            g_pad: Vec::new(),
            g_t: Vec::new(),
            dxhat: Vec::new(),
            profiling: false,
            spans: SpanSet::new(),
            counters: CounterSet::new(),
            mac_slot: Counter::MacsOther as usize,
            kernel_policy: KernelPolicy::Scalar,
            simd_active: false,
        }
    }

    /// Selects the kernel family for conv GEMM calls through this
    /// workspace. [`KernelPolicy::Simd`] engages the AVX2+FMA tiles only
    /// when the `simd` feature is compiled in and the host supports them
    /// (checked once here, cached in [`NnWorkspace::simd_active`]);
    /// otherwise it silently falls back to the scalar tiles, so results
    /// stay bit-identical to the naive oracle.
    pub fn set_kernel_policy(&mut self, policy: KernelPolicy) {
        self.kernel_policy = policy;
        self.simd_active = kernels::resolve(policy);
    }

    /// The requested kernel policy (not necessarily what runs — see
    /// [`NnWorkspace::simd_active`]).
    #[must_use]
    pub fn kernel_policy(&self) -> KernelPolicy {
        self.kernel_policy
    }

    /// Whether conv GEMM calls through this workspace run the AVX2+FMA
    /// lane: the requested policy resolved against build features and the
    /// host CPU.
    #[inline]
    #[must_use]
    pub fn simd_active(&self) -> bool {
        self.simd_active
    }

    /// Acquires a zeroed tensor of the given shape from the pool.
    pub fn alloc(&mut self, shape: &[usize]) -> Tensor {
        let mut t = match self.pool.pop() {
            Some(t) => {
                self.counters.bump(Counter::NnPoolHits);
                t
            }
            None => {
                self.counters.bump(Counter::NnPoolMisses);
                Tensor::pool_seed()
            }
        };
        t.refit(shape);
        t
    }

    /// Acquires a tensor holding a copy of `src` from the pool.
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut t = self.alloc(src.shape());
        t.data_mut().copy_from_slice(src.data());
        t
    }

    /// Returns a tensor's storage (shape and data vectors) to the pool for
    /// reuse.
    pub fn free(&mut self, t: Tensor) {
        self.pool.push(t);
    }

    /// Takes the im2col panel buffer, sized to at least `len` (callers
    /// return it via [`NnWorkspace::put_im2col`]; taking keeps the borrow
    /// checker out of kernels that also index the workspace).
    pub(crate) fn take_im2col(&mut self, len: usize) -> Vec<f32> {
        let mut b = std::mem::take(&mut self.im2col);
        if b.len() < len {
            b.resize(len, 0.0);
        }
        b
    }

    /// Returns the im2col panel buffer.
    pub(crate) fn put_im2col(&mut self, b: Vec<f32>) {
        self.im2col = b;
    }

    /// Enables per-layer-kind profiling (cleared stats). Durations are
    /// non-zero only when `oarsmt-telemetry` is built with its
    /// `telemetry-timing` feature; counts are recorded either way.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
        self.spans = SpanSet::new();
    }

    /// Disables profiling, returning the accumulated per-layer spans.
    pub fn take_spans(&mut self) -> SpanSet {
        self.profiling = false;
        std::mem::take(&mut self.spans)
    }

    /// Starts a profiled span; pair with [`NnWorkspace::prof_end`]. The
    /// clock read (if any) happens inside `oarsmt-telemetry` behind its
    /// feature gate — this crate never observes time.
    #[inline]
    pub(crate) fn prof_start(&self) -> SpanStart {
        if self.profiling {
            SpanStart::now()
        } else {
            SpanStart::disabled()
        }
    }

    /// Ends a profiled span started by [`NnWorkspace::prof_start`].
    #[inline]
    pub(crate) fn prof_end(&mut self, start: SpanStart, kind: ProfKind) {
        if self.profiling {
            self.spans.stop(start, kind.span());
        }
    }

    /// Retags the MAC-attribution counter slot, returning the previous tag
    /// (callers restore it on the way out of a layer).
    #[inline]
    pub fn set_mac_slot(&mut self, c: Counter) -> usize {
        std::mem::replace(&mut self.mac_slot, c as usize)
    }

    /// Restores a MAC-attribution slot returned by
    /// [`NnWorkspace::set_mac_slot`].
    #[inline]
    pub fn restore_mac_slot(&mut self, slot: usize) {
        self.mac_slot = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_zeroed_tensors_and_reuses_storage() {
        let mut ws = NnWorkspace::new();
        let mut t = ws.alloc(&[2, 3]);
        assert_eq!(t.sum(), 0.0);
        t.fill(7.0);
        let ptr = t.data().as_ptr();
        ws.free(t);
        // Same storage comes back, re-zeroed.
        let t2 = ws.alloc(&[3, 2]);
        assert_eq!(t2.data().as_ptr(), ptr);
        assert_eq!(t2.sum(), 0.0);
    }

    #[test]
    fn alloc_copy_matches_source() {
        let mut ws = NnWorkspace::new();
        let src = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        let c = ws.alloc_copy(&src);
        assert_eq!(c, src);
    }

    #[test]
    fn profiling_accumulates_spans() {
        let mut ws = NnWorkspace::new();
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        assert!(
            ws.take_spans().is_empty(),
            "disabled profiling records nothing"
        );
        ws.enable_profiling();
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        let spans = ws.take_spans();
        assert_eq!(spans.get(Span::NnConvFwd).count, 1);
        let t = ws.prof_start();
        ws.prof_end(t, ProfKind::ConvFwd);
        assert!(ws.take_spans().is_empty(), "take_spans disables profiling");
    }

    #[test]
    fn pool_hits_and_misses_are_counted() {
        let mut ws = NnWorkspace::new();
        let t = ws.alloc(&[4]); // miss: empty pool
        ws.free(t);
        let t = ws.alloc(&[2, 2]); // hit: recycled storage
        ws.free(t);
        assert_eq!(ws.counters.get(Counter::NnPoolMisses), 1);
        assert_eq!(ws.counters.get(Counter::NnPoolHits), 1);
    }

    #[test]
    fn mac_slot_retag_restores() {
        let mut ws = NnWorkspace::new();
        assert_eq!(ws.mac_slot, Counter::MacsOther as usize);
        let prev = ws.set_mac_slot(Counter::MacsEnc1);
        assert_eq!(ws.mac_slot, Counter::MacsEnc1 as usize);
        ws.restore_mac_slot(prev);
        assert_eq!(ws.mac_slot, Counter::MacsOther as usize);
    }
}
